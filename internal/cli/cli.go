// Package cli holds the flag bundles shared by the cmd binaries, each
// declared once with a RegisterFlags method — Model (-k -us -mu -gamma
// -lambda0 -arrive → model.Params), Records (-jsonl -store → one
// engine.Sink) and Telemetry (-metrics-addr -report -trace -flight) — and
// the spec parsers, whose every failure wraps ErrBadSpec.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/pieceset"
)

// ErrBadSpec reports an unparsable command-line specification.
var ErrBadSpec = errors.New("cli: bad specification")

// ParseGamma parses a γ value: a positive float or "inf" (any case).
func ParseGamma(s string) (float64, error) {
	if strings.EqualFold(strings.TrimSpace(s), "inf") {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: gamma %q", ErrBadSpec, s)
	}
	return v, nil
}

// ParseArrival parses one arrival spec "PIECES=RATE" where PIECES is a
// comma-separated list of piece numbers or "empty"/"" for the empty type.
// Examples: "empty=1.5", "1,2=0.4", "3=0.25".
func ParseArrival(spec string) (pieceset.Set, float64, error) {
	parts := strings.SplitN(spec, "=", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("%w: arrival %q (want PIECES=RATE)", ErrBadSpec, spec)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: rate in %q", ErrBadSpec, spec)
	}
	set, err := ParsePieces(parts[0])
	if err != nil {
		return 0, 0, err
	}
	return set, rate, nil
}

// ParsePieces parses "1,3,4", "empty", or "" into a piece set.
func ParsePieces(s string) (pieceset.Set, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "empty") || s == "{}" {
		return pieceset.Empty, nil
	}
	var pieces []int
	for _, tok := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return 0, fmt.Errorf("%w: piece %q", ErrBadSpec, tok)
		}
		pieces = append(pieces, p)
	}
	set, err := pieceset.Of(pieces...)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return set, nil
}

// ParseRange parses an axis range "MIN,MAX". Whether the bounds are
// finite and ordered is the sweep grid's check, not the parser's.
func ParseRange(s string) (lo, hi float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("%w: range %q (want MIN,MAX)", ErrBadSpec, s)
	}
	if lo, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, fmt.Errorf("%w: range %q: %v", ErrBadSpec, s, err)
	}
	if hi, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 0, 0, fmt.Errorf("%w: range %q: %v", ErrBadSpec, s, err)
	}
	return lo, hi, nil
}

// Model bundles the parameter-point flags -k -us -mu -gamma -lambda0 and
// the repeatable -arrive. The field values at RegisterFlags time become
// the flag defaults, so a binary presets the struct (DefaultModel, then
// its own overrides) before registering.
type Model struct {
	K       int
	Us      float64
	Mu      float64
	Gamma   string // parsed by Params (ParseGamma)
	Lambda0 float64

	arrivals arrivalFlags
}

// DefaultModel returns the shared defaults: K=1, U_s=1, µ=1, γ=2 and
// empty-type arrivals at λ0=1.
func DefaultModel() Model {
	return Model{K: 1, Us: 1, Mu: 1, Gamma: "2", Lambda0: 1}
}

// RegisterFlags installs the model flags on fs.
func (m *Model) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&m.K, "k", m.K, "number of pieces K")
	fs.Float64Var(&m.Us, "us", m.Us, "fixed seed upload rate U_s")
	fs.Float64Var(&m.Mu, "mu", m.Mu, "peer contact rate µ")
	fs.StringVar(&m.Gamma, "gamma", m.Gamma, `peer-seed departure rate γ (number or "inf")`)
	fs.Float64Var(&m.Lambda0, "lambda0", m.Lambda0, "empty-type arrival rate λ0 (used when no -arrive flags)")
	fs.Var(&m.arrivals, "arrive", "arrival spec PIECES=RATE (repeatable), e.g. -arrive 1,2=0.5 or -arrive empty=1")
}

// Params assembles the validated model parameters from the parsed flags,
// applying the default of empty-type arrivals at rate λ0 when no -arrive
// flag was given.
func (m *Model) Params() (model.Params, error) {
	gamma, err := ParseGamma(m.Gamma)
	if err != nil {
		return model.Params{}, err
	}
	lambda := map[pieceset.Set]float64(m.arrivals)
	if len(lambda) == 0 {
		lambda = map[pieceset.Set]float64{pieceset.Empty: m.Lambda0}
	}
	p := model.Params{K: m.K, Us: m.Us, Mu: m.Mu, Gamma: gamma, Lambda: lambda}
	if err := p.Validate(); err != nil {
		return model.Params{}, err
	}
	return p, nil
}

// arrivalFlags accumulates repeated -arrive flags into a λ map.
type arrivalFlags map[pieceset.Set]float64

// String implements flag.Value.
func (a *arrivalFlags) String() string {
	if a == nil || len(*a) == 0 {
		return ""
	}
	var parts []string
	for c, l := range *a {
		parts = append(parts, fmt.Sprintf("%v=%g", c, l))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Set implements flag.Value.
func (a *arrivalFlags) Set(spec string) error {
	c, rate, err := ParseArrival(spec)
	if err != nil {
		return err
	}
	if *a == nil {
		*a = make(arrivalFlags)
	}
	(*a)[c] += rate
	return nil
}
