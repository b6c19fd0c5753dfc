package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"eddie/internal/obs"
)

// span is one timed section on a lane. A lane is one goroutine's
// sequence of calls (a device session, a worker); spans on a lane nest
// by time, and a span's parent is the innermost span that encloses it.
type span struct {
	name       string
	lane       int
	start, end int64 // ns since the log's origin
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog keeps the benchmark's spans in memory until the run ends. A
// nil log records nothing, so untraced passes pay one nil check.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	lanes map[int]string
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), lanes: map[int]string{}}
}

// lane names a lane for the trace viewer.
func (l *spanLog) lane(id int, label string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.lanes[id] = label
	l.mu.Unlock()
}

// add records a span that ran from start to end.
func (l *spanLog) add(lane int, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, lane: lane, start: int64(start.Sub(l.t0)), end: int64(end.Sub(l.t0))})
	l.mu.Unlock()
}

// timed runs fn inside a span.
func (l *spanLog) timed(lane int, name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	t := time.Now()
	fn()
	l.add(lane, name, t, time.Now())
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// importRecorder copies the complete spans of an in-program recorder
// into the log, prefixing their names. origin is when the recorder was
// created, which aligns its clock with the log's. With perTrack each of
// the recorder's tracks gets its own lane (laneBase + track id), for
// recorders shared by concurrent workers; otherwise every span lands on
// laneBase. Instant and metadata events are skipped.
func (l *spanLog) importRecorder(rec *obs.Recorder, origin time.Time, laneBase int, perTrack bool, prefix string) error {
	if l == nil || rec == nil {
		return nil
	}
	if d := rec.Dropped(); d > 0 {
		return fmt.Errorf("trace recorder dropped %d events", d)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		return err
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		return err
	}
	off := int64(origin.Sub(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		lane := laneBase
		if perTrack {
			lane += e.TID
		}
		s := off + int64(e.TS*1e3)
		l.spans = append(l.spans, span{name: prefix + e.Name, lane: lane, start: s, end: s + int64(e.Dur*1e3)})
	}
	return nil
}

// tracedRecorder returns a fresh in-program recorder and its origin
// when the pass is traced, and a nil recorder otherwise.
func tracedRecorder(traced bool) (*obs.Recorder, time.Time) {
	if !traced {
		return nil, time.Time{}
	}
	rec := obs.NewRecorder()
	return rec, time.Now()
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	count   int
	totalNs int64
	selfNs  int64
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the part of it that its direct children cover; children are
// clipped to the parent, so clock skew between sources cannot make self
// time negative.
func selfTimes(spans []span) map[string]*layerTime {
	byLane := map[int][]span{}
	for _, s := range spans {
		byLane[s.lane] = append(byLane[s.lane], s)
	}
	out := map[string]*layerTime{}
	for _, ls := range byLane {
		sort.SliceStable(ls, func(i, j int) bool {
			if ls[i].start != ls[j].start {
				return ls[i].start < ls[j].start
			}
			return ls[i].end > ls[j].end
		})
		covered := make([]int64, len(ls))
		var stack []int
		for i, s := range ls {
			for len(stack) > 0 && ls[stack[len(stack)-1]].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := ls[stack[len(stack)-1]]
				lo, hi := max(s.start, p.start), min(s.end, p.end)
				if hi > lo {
					covered[stack[len(stack)-1]] += hi - lo
				}
			}
			stack = append(stack, i)
		}
		for i, s := range ls {
			lt := out[s.name]
			if lt == nil {
				lt = &layerTime{}
				out[s.name] = lt
			}
			lt.count++
			lt.totalNs += s.dur()
			self := s.dur() - covered[i]
			if self < 0 {
				self = 0
			}
			lt.selfNs += self
		}
	}
	return out
}

// times returns the self-time table of everything recorded so far.
func (l *spanLog) times() map[string]*layerTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	return selfTimes(l.spans)
}

// writeChrome writes the log as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing).
func (l *spanLog) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	l.mu.Lock()
	events := make([]ev, 0, len(l.spans)+len(l.lanes))
	for id, label := range l.lanes {
		events = append(events, ev{Name: "thread_name", Ph: "M", PID: 1, TID: id, Args: map[string]any{"name": label}})
	}
	for _, s := range l.spans {
		events = append(events, ev{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, PID: 1, TID: s.lane})
	}
	l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perWindowUs is a span name's total (or self) time per window, in µs.
func perWindowUs(t map[string]*layerTime, name string, self bool, windows int64) float64 {
	lt := t[name]
	if lt == nil || windows == 0 {
		return 0
	}
	ns := lt.totalNs
	if self {
		ns = lt.selfNs
	}
	return float64(ns) / 1e3 / float64(windows)
}

// perRunMs is a span name's total time per span, in ms.
func perRunMs(t map[string]*layerTime, name string) float64 {
	lt := t[name]
	if lt == nil || lt.count == 0 {
		return 0
	}
	return float64(lt.totalNs) / 1e6 / float64(lt.count)
}
