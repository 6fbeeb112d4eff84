package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced campaign. Spans of one
// campaign share Campaign; Parent is 0 for the campaign's root span.
// Start and End are offsets from the recorder's epoch (monotonic).
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Campaign int           `json:"campaign"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span in memory until the run ends. A nil
// recorder records nothing, which is how untraced campaigns skip all
// bookkeeping.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(campaign, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Campaign: campaign, Name: name, Start: now, End: now})
	return id
}

// end closes span id; ids of 0 are ignored.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already finished span.
func (r *recorder) add(campaign, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Campaign: campaign, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// byCampaign groups a snapshot of the spans by campaign id.
func (r *recorder) byCampaign() map[int][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int][]span{}
	for _, s := range r.spans {
		out[s.Campaign] = append(out[s.Campaign], s)
	}
	return out
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	return f.Close()
}

// covered returns how much of [lo, hi) the union of the spans covers.
// Overlapping spans (two workers' RPCs in flight at once) count once.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// selfTime is s's duration minus the part its children cover.
func selfTime(s span, children []span) time.Duration {
	return s.dur() - covered(s.Start, s.End, children)
}

// tree indexes one campaign's spans by parent.
type tree struct {
	spans    []span
	children map[int][]span
}

func newTree(spans []span) tree {
	t := tree{spans: spans, children: map[int][]span{}}
	for _, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	return t
}

// named returns the spans called name, in start order.
func (t tree) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// sum adds the durations of the spans called name.
func (t tree) sum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// selfSum adds the self times of the spans called name.
func (t tree) selfSum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += selfTime(s, t.children[s.ID])
	}
	return d
}
