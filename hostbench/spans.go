package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are seconds since the tracer started; Parent is 0 for a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the run ends. Spans nest by call
// order, so it is used from one goroutine only. A nil tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned, and any left open inside it.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := t.now()
	for n := len(t.open); n > 0; n = len(t.open) {
		j := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[j].End = now
		if j == i {
			return
		}
	}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// selfTime is a span name's total duration, and the part of it not
// covered by child spans.
type selfTime struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes sums every span name's total and self time, largest self
// time first.
func (t *tracer) selfTimes() []selfTime {
	child := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	index := map[string]int{}
	var out []selfTime
	for _, s := range t.spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, selfTime{Name: s.Name})
		}
		out[i].Calls++
		out[i].Total += s.End - s.Start
		out[i].Self += s.End - s.Start - child[s.ID]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// write stores the spans and their self times as one JSON document.
func (t *tracer) write(path string) error {
	doc := struct {
		Spans     []span     `json:"spans"`
		SelfTimes []selfTime `json:"self_times"`
	}{t.spans, t.selfTimes()}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
