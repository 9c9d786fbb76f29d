package cli

import (
	"errors"
	"flag"
	"io"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
)

func TestParseGamma(t *testing.T) {
	if g, err := ParseGamma("2.5"); err != nil || g != 2.5 {
		t.Errorf("ParseGamma(2.5) = %v, %v", g, err)
	}
	for _, s := range []string{"inf", "Inf", " INF "} {
		if g, err := ParseGamma(s); err != nil || !math.IsInf(g, 1) {
			t.Errorf("ParseGamma(%q) = %v, %v", s, g, err)
		}
	}
	if _, err := ParseGamma("abc"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad gamma err = %v", err)
	}
}

func TestParsePieces(t *testing.T) {
	tests := []struct {
		in   string
		want pieceset.Set
	}{
		{"", pieceset.Empty},
		{"empty", pieceset.Empty},
		{"{}", pieceset.Empty},
		{"1", pieceset.MustOf(1)},
		{"1, 3 ,4", pieceset.MustOf(1, 3, 4)},
	}
	for _, tt := range tests {
		got, err := ParsePieces(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParsePieces(%q) = %v, %v", tt.in, got, err)
		}
	}
	for _, bad := range []string{"x", "0", "1,,2", "99"} {
		if _, err := ParsePieces(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParsePieces(%q) err = %v", bad, err)
		}
	}
}

func TestParseArrival(t *testing.T) {
	c, rate, err := ParseArrival("1,2=0.5")
	if err != nil || c != pieceset.MustOf(1, 2) || rate != 0.5 {
		t.Errorf("ParseArrival = %v, %v, %v", c, rate, err)
	}
	c, rate, err = ParseArrival("empty=2")
	if err != nil || c != pieceset.Empty || rate != 2 {
		t.Errorf("ParseArrival(empty) = %v, %v, %v", c, rate, err)
	}
	// "=1" is legal: it denotes the empty type at rate 1.
	if c, rate, err := ParseArrival("=1"); err != nil || c != pieceset.Empty || rate != 1 {
		t.Errorf(`ParseArrival("=1") = %v, %v, %v`, c, rate, err)
	}
	for _, bad := range []string{"1,2", "1=x", "z=1"} {
		if _, _, err := ParseArrival(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseArrival(%q) err = %v", bad, err)
		}
	}
}

// parseModel registers m's flags on a fresh flag set and parses args.
func parseModel(t *testing.T, m *Model, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m.RegisterFlags(fs)
	return fs.Parse(args)
}

func TestArrivalFlags(t *testing.T) {
	m := DefaultModel()
	if err := parseModel(t, &m); err != nil {
		t.Fatal(err)
	}
	if m.arrivals.String() != "" {
		t.Error("empty flags must render empty")
	}
	// Repeated -arrive flags accumulate per type.
	if err := parseModel(t, &m, "-arrive", "1=0.5", "-arrive", "1=0.25", "-arrive", "empty=1"); err != nil {
		t.Fatal(err)
	}
	if m.arrivals[pieceset.MustOf(1)] != 0.75 {
		t.Errorf("accumulated rate = %v", m.arrivals[pieceset.MustOf(1)])
	}
	if m.arrivals.String() == "" {
		t.Error("non-empty flags must render")
	}
	if err := parseModel(t, &m, "-arrive", "bogus"); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestModelParams(t *testing.T) {
	m := DefaultModel()
	if err := parseModel(t, &m, "-k", "2", "-lambda0", "1.5"); err != nil {
		t.Fatal(err)
	}
	p, err := m.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.LambdaOf(pieceset.Empty) != 1.5 {
		t.Error("default empty arrivals not applied")
	}
	m = DefaultModel()
	if err := parseModel(t, &m, "-k", "2", "-lambda0", "1.5", "-arrive", "1=0.5", "-gamma", "inf"); err != nil {
		t.Fatal(err)
	}
	if p, err = m.Params(); err != nil {
		t.Fatal(err)
	}
	if p.LambdaOf(pieceset.Empty) != 0 || p.LambdaOf(pieceset.MustOf(1)) != 0.5 {
		t.Error("explicit arrivals must replace the default")
	}
	if !math.IsInf(p.Gamma, 1) {
		t.Errorf("gamma = %v, want +Inf", p.Gamma)
	}
	m = DefaultModel()
	if err := parseModel(t, &m, "-k", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Params(); err == nil {
		t.Error("invalid K accepted")
	}
	m = DefaultModel()
	if err := parseModel(t, &m, "-gamma", "abc"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Params(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad gamma err = %v, want ErrBadSpec", err)
	}
}

// TestModelDefaults pins each binary's model defaults after parsing no
// flags: every binary presets DefaultModel, and p2psim raises K to 2.
func TestModelDefaults(t *testing.T) {
	for _, tt := range []struct {
		binary string
		k      int
	}{
		{"p2psim", 2},
		{"phasemap", 1},
		{"stabilitycheck", 1},
	} {
		m := DefaultModel()
		m.K = tt.k
		if err := parseModel(t, &m); err != nil {
			t.Fatal(err)
		}
		p, err := m.Params()
		if err != nil {
			t.Fatalf("%s: %v", tt.binary, err)
		}
		want := model.Params{K: tt.k, Us: 1, Mu: 1, Gamma: 2, Lambda: map[pieceset.Set]float64{pieceset.Empty: 1}}
		if p.K != want.K || p.Us != want.Us || p.Mu != want.Mu || p.Gamma != want.Gamma ||
			len(p.Lambda) != 1 || p.LambdaOf(pieceset.Empty) != 1 {
			t.Errorf("%s defaults = %v, want %v", tt.binary, p, want)
		}
	}
}

func TestParseRange(t *testing.T) {
	for _, tt := range []struct {
		in     string
		lo, hi float64
	}{
		{"0.25,6", 0.25, 6},
		{" 1 , 2 ", 1, 2},
		{"-1,1e3", -1, 1000},
	} {
		lo, hi, err := ParseRange(tt.in)
		if err != nil || lo != tt.lo || hi != tt.hi {
			t.Errorf("ParseRange(%q) = %v, %v, %v", tt.in, lo, hi, err)
		}
	}
	// Non-finite bounds parse; the sweep grid rejects them.
	if lo, hi, err := ParseRange("nan,inf"); err != nil || !math.IsNaN(lo) || !math.IsInf(hi, 1) {
		t.Errorf("ParseRange(nan,inf) = %v, %v, %v", lo, hi, err)
	}
	for _, bad := range []string{"1", "1,2,3", "a,1", "1,b", ""} {
		if _, _, err := ParseRange(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseRange(%q) err = %v, want ErrBadSpec", bad, err)
		}
	}
}
