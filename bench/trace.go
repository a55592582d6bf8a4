//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Parent is the id of the
// span that caused it (0 for the root), so a workload's spans form a
// tree: workload > rep or phase > sink call, sampled request or
// layer-call batch.
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the tracer was made
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Every method is a
// no-op on a nil tracer, so untraced runs pay one branch per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id for end and for children.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = int64(time.Since(t.epoch))
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(parent int, name string, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: int64(from.Sub(t.epoch)), EndNs: int64(to.Sub(t.epoch))})
	t.mu.Unlock()
}

// write stores the spans as one JSON object per line, replacing the
// file or, for a workload run by the battery, appending to it.
func (t *tracer) write(path, workload string, appendTo bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		s.Workload = workload
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
