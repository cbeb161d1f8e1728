package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one of the benchmark's own spans: setup, a timed Run* call, a
// microbenchmark, or a whole isolated run process. Times are wall-clock
// Unix nanoseconds so spans from different processes line up.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Pid    int    `json:"pid"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLog keeps spans in memory until the run writes them out. IDs are
// unique within one process; the parent renumbers a child's spans when it
// merges them.
type spanLog struct {
	spans []span
}

// begin opens a span and returns the function that closes it, with its
// id for children.
func (l *spanLog) begin(name string, parent int) (id int, end func()) {
	id = len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Pid: os.Getpid(), Name: name, Start: time.Now().UnixNano()})
	return id, func() { l.spans[id-1].End = time.Now().UnixNano() }
}

// adopt merges a child process's spans under parent, renumbering them.
func (l *spanLog) adopt(child []span, parent int) {
	base := len(l.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// writeChrome writes the spans as a Chrome trace ("X" complete events,
// one track per process) to path.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var t0 int64
	if len(l.spans) > 0 {
		t0 = l.spans[0].Start
	}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start-t0) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Pid, Tid: s.Pid,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	b, err := json.Marshal(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
