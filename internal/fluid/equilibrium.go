package fluid

import (
	"errors"
	"math"
)

// ErrNoEquilibrium reports that the trajectory did not settle within the
// iteration budget — expected for transient parameter points, where the
// fluid population grows without bound.
var ErrNoEquilibrium = errors.New("fluid: trajectory did not settle")

// Equilibrium integrates from x0 until the vector field's L1 norm falls
// below tol, returning the settled state. maxTime bounds the search; when
// the budget runs out (e.g. in the transient regime) ErrNoEquilibrium is
// returned along with the last state reached. The loop steps in place on a
// reusable Stepper — same arithmetic as Integrate, no per-step allocation.
func (s *System) Equilibrium(x0 []float64, dt, tol, maxTime float64) ([]float64, error) {
	if dt <= 0 || tol <= 0 || maxTime <= 0 {
		return nil, ErrBadStep
	}
	if len(x0) != s.dim {
		return nil, ErrBadState
	}
	x := make([]float64, s.dim)
	copy(x, x0)
	st := s.NewStepper()
	f := make([]float64, s.dim)
	steps := int(maxTime / dt)
	checkEvery := 50
	if checkEvery > steps {
		checkEvery = 1
	}
	for step := 0; step < steps; step++ {
		if err := st.Step(x, dt); err != nil {
			return nil, err
		}
		if step%checkEvery != 0 {
			continue
		}
		if err := s.FieldInto(f, x); err != nil {
			return nil, err
		}
		var norm float64
		for _, v := range f {
			norm += math.Abs(v)
		}
		if norm < tol {
			return x, nil
		}
	}
	return x, ErrNoEquilibrium
}
