// Package golden is the project's one equivalence check: tests render a
// binary's output in-process and compare the bytes with files checked in
// under the package's testdata/ directory. Run
//
//	go test ./internal/exp ./cmd/experiments ./cmd/p2psim ./cmd/phasemap -update
//
// to rewrite the files from the current code, then review the testdata
// diff: every changed byte is a changed result. DESIGN.md §15 describes
// what is pinned.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// Check fails t unless every leg equals the first (the same output at
// different worker counts) and, on a pinned platform, the first equals
// testdata/name. With -update it rewrites testdata/name from the first
// leg instead. Off the pinned platform only the legs are compared.
func Check(t testing.TB, name string, legs ...[]byte) {
	t.Helper()
	for i, leg := range legs[1:] {
		if !bytes.Equal(leg, legs[0]) {
			t.Errorf("%s: leg %d differs from leg 0 at %s", name, i+1, firstDiff(legs[0], leg))
		}
	}
	path := filepath.Join("testdata", name)
	if why := Unpinned(); why != "" {
		if *update {
			t.Fatalf("golden: not rewriting %s: %s", path, why)
		}
		t.Logf("golden: %s compared across legs only: %s", name, why)
		return
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, legs[0], 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (record it with -update)", err)
	}
	if !bytes.Equal(legs[0], want) {
		t.Errorf("%s differs at %s (want, got); rerun with -update if the change is intended",
			path, firstDiff(want, legs[0]))
	}
}

// Digest renders b as one line of SHA-256 and length, the golden form of
// outputs too large or too binary to check in whole.
func Digest(b []byte) string {
	return fmt.Sprintf("sha256:%x %d bytes\n", sha256.Sum256(b), len(b))
}

// firstDiff names the first line where b departs from a.
func firstDiff(a, b []byte) string {
	al, bl := strings.SplitAfter(string(a), "\n"), strings.SplitAfter(string(b), "\n")
	i := 0
	for i < len(al) && i < len(bl) && al[i] == bl[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "<end>"
	}
	return fmt.Sprintf("line %d:\n  %q\n  %q", i+1, line(al), line(bl))
}

// expProbe is the digest of math.Exp at 40 000 points on the amd64 host
// that recorded the goldens. math.Exp on amd64 takes an FMA assembly path
// when the CPU has one (useFMA in the standard library), and other
// architectures fuse x*y+z in compiled code, so the recorded bytes are
// reproducible only on amd64 with this probe value.
const expProbe = "sha256:de84fe9474cf0d2ab6859c52cbeb7baee66d2931a1370de69d4d5b88e04cdfbf 320000 bytes\n"

// Unpinned says why this platform may not reproduce the recorded bytes
// ("" when it does). Tests outside this package use it to hold
// floating-point results to the recording host's exact values only where
// that host's arithmetic applies.
func Unpinned() string {
	if runtime.GOARCH != "amd64" {
		return "goldens are recorded on amd64; " + runtime.GOARCH + " fuses multiply-adds"
	}
	buf := make([]byte, 0, 8*40000)
	for i := 0; i < 40000; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(math.Exp(-20+float64(i)*1e-3)))
	}
	if got := Digest(buf); got != expProbe {
		return "math.Exp probe " + strings.TrimSpace(got) + " differs from the recording host's"
	}
	return ""
}
