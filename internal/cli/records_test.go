package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// openFDs counts this process's open file descriptors (Linux only).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// TestRecordsOpenFailureClosesJSONL: when -store cannot be created, Open
// fails and the -jsonl file it already created is closed, not leaked.
func TestRecordsOpenFailureClosesJSONL(t *testing.T) {
	dir := t.TempDir()
	// Warm up: the first file a process opens may also set up the runtime
	// poller's own descriptors.
	warm, err := os.Create(filepath.Join(dir, "warm"))
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()

	before := openFDs(t)
	r := Records{
		JSONLPath: filepath.Join(dir, "out.jsonl"),
		StorePath: filepath.Join(dir, "missing", "out.store"),
	}
	if sink, err := r.Open(); err == nil {
		t.Fatalf("Open with an uncreatable store = %v, want error", sink)
	}
	if after := openFDs(t); after != before {
		t.Errorf("open files: %d before Open, %d after its failure", before, after)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close after failed Open = %v", err)
	}
}

// TestRecordsTeeMatchesJSONL: with both outputs set, one replica record
// written through the opened sink lands in both files, and the store
// exports to the JSONL file's exact bytes.
func TestRecordsTeeMatchesJSONL(t *testing.T) {
	dir := t.TempDir()
	r := Records{JSONLPath: filepath.Join(dir, "out.jsonl"), StorePath: filepath.Join(dir, "out.store")}
	sink, err := r.Open()
	if err != nil {
		t.Fatal(err)
	}
	rec := engine.ReplicaRecord{
		Kind: "replica", Job: "records-test", Backend: "swarm", Replica: 0,
		Values: engine.Sample{"final_n": 12, "mean_n": 7.25},
		Series: map[string][]obs.Point{"n": {{T: 0, V: 0}, {T: 1.5, V: 3}}},
		Marks:  map[string]float64{"one_club": 2.5},
	}
	if err := sink.WriteReplica(rec); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	jsonl, err := os.ReadFile(r.JSONLPath)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := store.Open(r.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var back bytes.Buffer
	if err := engine.StoreToJSONL(&back, sr); err != nil {
		t.Fatal(err)
	}
	if len(jsonl) == 0 || !bytes.Equal(back.Bytes(), jsonl) {
		t.Errorf("store export differs from JSONL\nstore: %s\njsonl: %s", back.Bytes(), jsonl)
	}
}

// TestRecordsNone: with neither flag set, Open returns a nil sink.
func TestRecordsNone(t *testing.T) {
	var r Records
	sink, err := r.Open()
	if err != nil || sink != nil {
		t.Errorf("Open() = %v, %v, want nil, nil", sink, err)
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}
}
