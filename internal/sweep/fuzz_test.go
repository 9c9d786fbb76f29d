package sweep

import (
	"errors"
	"testing"
)

// FuzzAxisByName: any name resolves to the axis of that name or fails
// with an error wrapping ErrUnknownAxis, and never panics. The corpus is
// every registered name plus near misses.
func FuzzAxisByName(f *testing.F) {
	for _, name := range AxisNames() {
		f.Add(name)
	}
	for _, s := range []string{"", "nope", "lambda0", "lambda5", " lambda1", "LAMBDA1", "lambda1\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		a, err := AxisByName(name)
		switch {
		case err != nil && !errors.Is(err, ErrUnknownAxis):
			t.Fatalf("AxisByName(%q) error %v does not wrap ErrUnknownAxis", name, err)
		case err == nil && a.Name != name:
			t.Fatalf("AxisByName(%q) resolved axis %q", name, a.Name)
		}
	})
}
