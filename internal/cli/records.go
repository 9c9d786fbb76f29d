package cli

import (
	"flag"
	"io"
	"os"

	"repro/internal/engine"
)

// Records bundles the per-replica record outputs -jsonl FILE (JSON lines)
// and -store FILE (the columnar result store). Close reports the first
// close error, so a flush failure (full disk) fails the run instead of
// silently truncating a record file.
type Records struct {
	JSONLPath string
	StorePath string

	files []io.Closer
}

// RegisterFlags installs -jsonl and -store on fs.
func (r *Records) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&r.JSONLPath, "jsonl", "", "write per-replica structured records (series, marks, scalars) to this JSONL file")
	fs.StringVar(&r.StorePath, "store", "", "write per-replica structured records to this columnar result store (query with cmd/results)")
}

// Open creates the requested files and returns the sink writing to them:
// nil, the one sink, or an engine.Tee of both. On error it closes every
// file it created.
func (r *Records) Open() (engine.Sink, error) {
	var sinks []engine.Sink
	if r.JSONLPath != "" {
		f, err := os.Create(r.JSONLPath)
		if err != nil {
			return nil, err
		}
		r.files = append(r.files, f)
		sinks = append(sinks, engine.NewJSONLSink(f))
	}
	if r.StorePath != "" {
		ss, err := engine.CreateStoreSink(r.StorePath)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.files = append(r.files, ss)
		sinks = append(sinks, ss)
	}
	switch len(sinks) {
	case 0:
		return nil, nil
	case 1:
		return sinks[0], nil
	}
	return engine.Tee(sinks...), nil
}

// Close closes every file Open created and returns the first error. A
// second Close is a no-op.
func (r *Records) Close() error {
	var first error
	for _, f := range r.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.files = nil
	return first
}
