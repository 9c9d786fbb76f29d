package cli

import (
	"errors"
	"testing"
)

// typedOrNil fails the fuzz run unless err is nil or wraps ErrBadSpec —
// the "typed errors, never panics" contract every parser keeps.
func typedOrNil(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrBadSpec) {
		t.Fatalf("%s: untyped error %v", what, err)
	}
}

func FuzzParseArrival(f *testing.F) {
	for _, s := range []string{"1,2=0.5", "empty=2", "=1", "1,2", "1=x", "z=1", "3=0.25", "{}=1", "99=1", "0=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		_, _, err := ParseArrival(spec)
		typedOrNil(t, "ParseArrival("+spec+")", err)
	})
}

func FuzzParseGamma(f *testing.F) {
	for _, s := range []string{"2.5", "inf", "Inf", " INF ", "abc", "", "-1", "nan"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		_, err := ParseGamma(s)
		typedOrNil(t, "ParseGamma("+s+")", err)
	})
}

func FuzzParseRange(f *testing.F) {
	for _, s := range []string{"0.25,6", " 1 , 2 ", "-1,1e3", "nan,inf", "1", "1,2,3", "a,1", "1,b", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		lo, hi, err := ParseRange(s)
		typedOrNil(t, "ParseRange("+s+")", err)
		if err != nil && (lo != 0 || hi != 0) {
			t.Fatalf("ParseRange(%q) failed but returned %v, %v", s, lo, hi)
		}
	})
}
