package main

import (
	"errors"
	"io"
	"os"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the trace decoder and every decoded
// document to summarize and diff: decoding either succeeds or fails with
// an error wrapping errBadTrace, and neither report may panic. The corpus
// starts from testdata/p2psim_trace.json, a sample p2psim -trace file.
func FuzzLoad(f *testing.F) {
	sample, err := os.ReadFile("testdata/p2psim_trace.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add(sample[:len(sample)/2])
	for _, s := range []string{"", "null", "{}", "[]", `{"traceEvents":null}`,
		`{"traceEvents":[{"ph":"X","ts":1e308,"dur":1e308}]}`,
		`{"traceEvents":[{"ph":"M","name":"thread_name","tid":-1,"args":{"name":7}}]}`,
		`{"otherData":{"a":1}}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := parse(data)
		if err != nil {
			if !errors.Is(err, errBadTrace) {
				t.Fatalf("parse error %v does not wrap errBadTrace", err)
			}
			return
		}
		if err := summarize(io.Discard, doc); err != nil {
			t.Fatalf("summarize: %v", err)
		}
		if err := diff(io.Discard, "a", "b", doc, doc); err != nil {
			t.Fatalf("diff: %v", err)
		}
	})
}
