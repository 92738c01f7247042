package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one node of a frame's span tree. Times are microseconds on
// the pass clock.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// frameTrace is the span tree of one frame, id = (intersection, frame).
type frameTrace struct {
	ID           string `json:"id"`
	Intersection int    `json:"intersection"`
	Frame        int    `json:"frame"`
	Node         int    `json:"node"`
	Batch        int    `json:"batch,omitempty"`
	Spans        []span `json:"spans"`
}

// Span names. The four children of "frame" tile it by construction:
// each starts at the instant the previous one ends.
const (
	spanFrame     = "frame"                   // due → receipt
	spanLate      = "loadgen.late"            // due → ProcessFrameContext entered
	spanProcess   = "safecross.process_frame" // the ProcessFrameContext call
	spanSubmit    = "serve.submit"            // child of process_frame: the ClassifyFunc's Submit round trip
	spanBroadcast = "rsu.broadcast"           // the Broadcast call
	spanWire      = "rsu.wire"                // Broadcast returned → advisory read off Client.Messages()
)

// spanTree builds the tree of one received frame from its ledger line.
func spanTree(intersection, n int, r *frameRec) frameTrace {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	bcastEnd := r.broadcastEnd()
	spans := []span{
		{Name: spanFrame, StartUs: us(r.due), EndUs: us(r.recv)},
		{Name: spanLate, Parent: spanFrame, StartUs: us(r.due), EndUs: us(r.call)},
		{Name: spanProcess, Parent: spanFrame, StartUs: us(r.call), EndUs: us(r.procEnd)},
	}
	if r.submitStart > 0 {
		spans = append(spans, span{Name: spanSubmit, Parent: spanProcess, StartUs: us(r.submitStart), EndUs: us(r.submitEnd)})
	}
	spans = append(spans,
		span{Name: spanBroadcast, Parent: spanFrame, StartUs: us(r.procEnd), EndUs: us(bcastEnd)},
		span{Name: spanWire, Parent: spanFrame, StartUs: us(bcastEnd), EndUs: us(r.recv)})
	return frameTrace{
		ID:           fmt.Sprintf("%d/%d", intersection, n),
		Intersection: intersection, Frame: n, Node: int(r.node), Batch: int(r.batch),
		Spans: spans,
	}
}

// coverage is the share of the root span its direct children cover.
func (t frameTrace) coverage() float64 {
	var root, children float64
	for _, s := range t.Spans {
		switch s.Parent {
		case "":
			root = s.EndUs - s.StartUs
		case spanFrame:
			children += s.EndUs - s.StartUs
		}
	}
	if root <= 0 {
		return 1
	}
	return children / root
}

// traceFile is benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	WindowUs [2]float64   `json:"window_us"`
	Frames   []frameTrace `json:"frames"`
}

// traces builds the span tree of every scored, received frame.
func (l *ledger) traces() []frameTrace {
	var out []frameTrace
	l.scored(func(fi, n int, r *frameRec) {
		if r.received {
			out = append(out, spanTree(fi+1, n, r))
		}
	})
	return out
}

func writeTraceFile(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
