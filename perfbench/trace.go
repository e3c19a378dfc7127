package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Benchmark-side tracing. Spans are recorded around the calls the
// benchmark makes into each layer (the client round trip, a middleware
// around each server's Handler, the replays through sweep and mc); the
// program itself is not instrumented. Spans stay in memory until the run
// ends, when link assigns parents and the spans are written out as JSON
// lines.

// span is one timed interval of one request in one layer. Times are
// nanoseconds since the recorder's epoch; Parent indexes the recorder's
// span list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans from concurrent goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// record appends a root span; link assigns parents afterwards.
func (r *recorder) record(name string, req int, start, end time.Time) {
	sp := span{Name: name, Req: req, Start: start.Sub(r.epoch).Nanoseconds(),
		End: end.Sub(r.epoch).Nanoseconds(), Parent: -1}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// link makes each span whose name has an entry in parentOf a child of
// the shortest span of the parent name, of the same request, whose
// interval contains it. All other spans become roots.
func link(spans []span, parentOf map[string]string) {
	type key struct {
		name string
		req  int
	}
	byKey := map[key][]int{}
	for i, s := range spans {
		byKey[key{s.Name, s.Req}] = append(byKey[key{s.Name, s.Req}], i)
	}
	for i := range spans {
		spans[i].Parent = -1
		pn, ok := parentOf[spans[i].Name]
		if !ok {
			continue
		}
		best := -1
		for _, j := range byKey[key{pn, spans[i].Req}] {
			p := spans[j]
			if p.Start <= spans[i].Start && spans[i].End <= p.End &&
				(best < 0 || p.dur() < spans[best].dur()) {
				best = j
			}
		}
		spans[i].Parent = best
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and any part of a child outside the parent is ignored).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			if open && iv[0] <= curHi {
				curHi = max(curHi, iv[1])
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
