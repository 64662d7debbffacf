package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (-1 for a root); spans of one request or grid record
// share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"startNs"` // since the recorder's origin
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; write dumps them when the run ends.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int, req int64, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))})
	return id
}

// layerTimes aggregates spans by name: summed duration and summed self
// time. A span's self time is its duration minus the part of its interval
// that the union of its children covers.
type layerTimes struct {
	total time.Duration
	self  time.Duration
}

func (r *recorder) byName() map[string]*layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := map[string]*layerTimes{}
	for _, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.total += s.dur()
		lt.self += s.dur() - covered(s, r.spans, children[s.ID])
	}
	return out
}

// covered returns how much of s's interval the union of its children spans.
func covered(s span, all []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(all[k].Start, s.Start), min(all[k].End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	sum += curB - curA
	return time.Duration(sum)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(r.spans)
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", n, path)
	return nil
}

// ladder sets the layer times of one workload next to its end-to-end
// number. The rows come from the traced run, so they should add up to the
// traced end-to-end number; what they do not cover is the named remainder.
// The untraced number beside it gives the tracing overhead.
type ladder struct {
	title     string
	unit      string
	endToEnd  float64 // untraced
	traced    float64 // the same quantity in the traced run
	rows      []ladderRow
	remainder string // what the unaccounted part consists of
}

type ladderRow struct {
	layer string
	value float64
	note  string
}

func (l *ladder) add(layer string, v float64, note string) {
	l.rows = append(l.rows, ladderRow{layer, v, note})
}

func (l *ladder) sum() float64 {
	s := 0.0
	for _, r := range l.rows {
		s += r.value
	}
	return s
}

// unattributed is the share of the traced end-to-end number the layer rows
// do not account for.
func (l *ladder) unattributed() float64 {
	if l.traced == 0 {
		return 0
	}
	return (l.traced - l.sum()) / l.traced
}

func (l *ladder) print() {
	fmt.Printf("layer ladder: %s (%s)\n", l.title, l.unit)
	for _, r := range l.rows {
		fmt.Printf("  %-34s %12.4f  %s\n", r.layer, r.value, r.note)
	}
	fmt.Printf("  %-34s %12.4f\n", "= sum of layer self times", l.sum())
	fmt.Printf("  %-34s %12.4f\n", "end-to-end, traced run", l.traced)
	fmt.Printf("  %-34s %12.4f  (%.1f%%) %s\n", "remainder", l.traced-l.sum(), 100*l.unattributed(), l.remainder)
	fmt.Printf("  %-34s %12.4f  (tracing overhead %+.4f)\n", "end-to-end, untraced run", l.endToEnd, l.traced-l.endToEnd)
}
