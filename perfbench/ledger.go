package main

import (
	"strings"
	"time"

	"attila/internal/core"
)

// families are the box families the per-layer ledger reports, named
// after the boxes' registered names with the instance index removed.
// The memory controller is reported under the mem layer.
var families = []string{
	"CommandProcessor", "Streamer", "PrimAssembly", "Clipper", "TriangleSetup",
	"FragmentGenerator", "HierarchicalZ", "ZStencil", "Interpolator",
	"FragmentFIFO", "Shader", "TextureUnit", "TexCrossbar", "ColorWrite", "DAC",
	"MemoryController",
}

// familyOf strips the instance index from a box name ("Shader3").
func familyOf(box string) string { return strings.TrimRight(box, "0123456789") }

// ledger is a core.ClockObserver that times every box clock of a
// serial run and accounts the time between consecutive box clocks to
// the clock loop itself (signal and barrier work, end-of-cycle hooks,
// and the observer's own cost). Over a run, box time plus loop time
// covers the span from the first box clock to the last one; what is
// left of the simulation call's wall time is its prologue and
// epilogue, reported as the residual.
type ledger struct {
	boxes  []core.Box
	family []string
	index  map[core.Box]int
	boxNs  []int64

	next    int   // registration index expected next
	last    int64 // end of the previous box clock, ns since origin
	loopNs  int64
	origin  time.Time
	clocked bool
}

func newLedger(boxes []core.Box) *ledger {
	l := &ledger{
		boxes:  boxes,
		family: make([]string, len(boxes)),
		index:  make(map[core.Box]int, len(boxes)),
		boxNs:  make([]int64, len(boxes)),
		origin: time.Now(),
	}
	for i, b := range boxes {
		l.family[i] = familyOf(b.BoxName())
		l.index[b] = i
	}
	return l
}

// BoxClocked implements core.ClockObserver. A serial run clocks boxes
// in registration order, so the expected index usually matches and
// the map lookup is skipped.
func (l *ledger) BoxClocked(_ int, b core.Box, hostNs int64) {
	now := time.Since(l.origin).Nanoseconds()
	i := l.next
	if i >= len(l.boxes) || l.boxes[i] != b {
		i = l.index[b]
	}
	l.next = i + 1
	l.boxNs[i] += hostNs
	if l.clocked {
		l.loopNs += now - hostNs - l.last
	}
	l.clocked = true
	l.last = now
}

// layerReport is one simulation call's host-time ledger.
type layerReport struct {
	SimS      float64            `json:"sim_s"`
	FamilyS   map[string]float64 `json:"family_s"`
	BoxS      float64            `json:"box_s"`
	LoopSelfS float64            `json:"loop_self_s"`
	// ResidualS is the simulation call's wall time not covered by box
	// clocks or the loop between them: its prologue and epilogue.
	ResidualS float64 `json:"residual_s"`
}

// report closes the ledger against the wall time of the simulation
// call it observed.
func (l *ledger) report(simS float64) layerReport {
	r := layerReport{SimS: simS, FamilyS: map[string]float64{}, LoopSelfS: float64(l.loopNs) / 1e9}
	for i, ns := range l.boxNs {
		s := float64(ns) / 1e9
		r.FamilyS[l.family[i]] += s
		r.BoxS += s
	}
	r.ResidualS = simS - r.BoxS - r.LoopSelfS
	return r
}

// add folds another simulation call's ledger into r (sweeps run one
// simulation per job).
func (r *layerReport) add(o layerReport) {
	if r.FamilyS == nil {
		r.FamilyS = map[string]float64{}
	}
	r.SimS += o.SimS
	r.BoxS += o.BoxS
	r.LoopSelfS += o.LoopSelfS
	r.ResidualS += o.ResidualS
	for f, s := range o.FamilyS {
		r.FamilyS[f] += s
	}
}

// span is one timed call at a benchmark boundary. Times are Unix
// nanoseconds so spans from the parent and its child processes line
// up in one trace.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Process is "parent" or the child's repetition label.
	Process string `json:"process,omitempty"`

	start time.Time // monotonic start, for the duration
}

// spanLog keeps spans in memory; they are written out once, at the end.
type spanLog struct {
	spans []span
}

// begin opens a span and returns its ID.
func (s *spanLog) begin(name string, parent int) int {
	now := time.Now()
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: parent, Name: name, StartNs: now.UnixNano(), start: now})
	return len(s.spans)
}

// end closes a span opened by begin and returns its duration in seconds.
func (s *spanLog) end(id int) float64 {
	sp := &s.spans[id-1]
	d := time.Since(sp.start)
	sp.EndNs = sp.StartNs + d.Nanoseconds()
	return d.Seconds()
}
