package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"attila/internal/gpu"
)

// The output checks. The timing model has no reference timing data in
// the repository, so it is unvalidated; the oracle is functional:
// every frame must match the reference renderer pixel for pixel, every
// repetition must reproduce the same cycles and statistics, and a
// served sweep must reproduce an uninterrupted run byte for byte.

// ledgerTolerance bounds the share of a traced simulation call's wall
// time that the ledger leaves unattributed (the call's prologue and
// epilogue outside the first and last box clock).
const ledgerTolerance = 0.01

// replayCheck holds what every replay must reproduce.
type replayCheck struct {
	ref    []*gpu.Frame
	refPPM [][]byte
	// From the first repetition checked; all later ones must match.
	seen    bool
	cycles  int64
	summary [sha256.Size]byte
	csv     [sha256.Size]byte
}

func newReplayCheck(ref []*gpu.Frame) (*replayCheck, error) {
	c := &replayCheck{ref: ref}
	for _, fr := range ref {
		var buf bytes.Buffer
		if err := fr.WritePPM(&buf); err != nil {
			return nil, err
		}
		c.refPPM = append(c.refPPM, buf.Bytes())
	}
	return c, nil
}

// check compares one replay's output directory with the reference and
// with the first repetition, returning what differs.
func (c *replayCheck) check(dir string, res *childResult) []string {
	var probs []string
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	if res.Frames != len(c.ref) {
		bad("%d frames, reference renderer has %d", res.Frames, len(c.ref))
	}
	for i, ref := range c.ref {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("frame%03d.rgba", i)))
		if err != nil {
			bad("frame %d: %v", i, err)
			continue
		}
		if diff, maxd := gpu.DiffFrames(&gpu.Frame{W: ref.W, H: ref.H, Pix: raw}, ref); diff != 0 || len(raw) != len(ref.Pix) {
			bad("frame %d differs from the reference renderer in %d pixels (max delta %d)", i, diff, maxd)
		}
		ppm, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("frame%03d.ppm", i)))
		if err != nil || !bytes.Equal(ppm, c.refPPM[i]) {
			bad("frame %d: written PPM differs from the reference renderer's", i)
		}
	}
	summary, err1 := os.ReadFile(filepath.Join(dir, "summary.txt"))
	csv, err2 := os.ReadFile(filepath.Join(dir, "stats.csv"))
	if err1 != nil || err2 != nil || len(summary) == 0 || len(csv) == 0 {
		bad("stats summary or CSV missing")
		return probs
	}
	sd, cd := sha256.Sum256(summary), sha256.Sum256(csv)
	if !c.seen {
		c.seen, c.cycles, c.summary, c.csv = true, res.Cycles, sd, cd
	}
	if res.Cycles != c.cycles {
		bad("%d simulated cycles, first repetition had %d", res.Cycles, c.cycles)
	}
	if sd != c.summary {
		bad("stats summary digest differs from the first repetition")
	}
	if cd != c.csv {
		bad("stats CSV digest differs from the first repetition")
	}
	return append(probs, tracedProblems(res)...)
}

// tracedProblems checks what only a traced child reports: checkpoint
// round trips and the closure of the host-time ledger.
func tracedProblems(res *childResult) []string {
	var probs []string
	for i, ck := range res.Ckpt {
		if !ck.Same {
			probs = append(probs, fmt.Sprintf("checkpoint round trip %d: restored machine differs", i))
		}
	}
	if l := res.Layer; l != nil && !(math.Abs(l.ResidualS) <= ledgerTolerance*l.SimS) {
		probs = append(probs, fmt.Sprintf("ledger does not close: box %.4fs + loop %.4fs vs simulation wall %.4fs",
			l.BoxS, l.LoopSelfS, l.SimS))
	}
	return probs
}

// sweepCheck holds an uninterrupted run's outputs, which a served
// sweep must reproduce byte for byte.
type sweepCheck struct {
	summaryName string
	summary     []byte
	csv         map[string][]byte
}

func loadSweepCheck(dir, sweepName string, jobs []jobResult) (*sweepCheck, error) {
	c := &sweepCheck{summaryName: sweepName + "-summary.txt", csv: map[string][]byte{}}
	var err error
	if c.summary, err = os.ReadFile(filepath.Join(dir, c.summaryName)); err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if c.csv[j.Name], err = os.ReadFile(filepath.Join(dir, j.Name+".csv")); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// check compares a sweep's output directory with the uninterrupted
// run. It returns how many jobs failed or came out wrong, and why.
func (c *sweepCheck) check(dir string, res *childResult) (int, []string) {
	var probs []string
	failed := 0
	for _, j := range res.Jobs {
		got, err := os.ReadFile(filepath.Join(dir, j.Name+".csv"))
		switch {
		case j.State != "done":
			probs = append(probs, fmt.Sprintf("job %s ended %s", j.Name, j.State))
		case err != nil || !bytes.Equal(got, c.csv[j.Name]):
			probs = append(probs, fmt.Sprintf("job %s: stats CSV differs from the uninterrupted run", j.Name))
		default:
			continue
		}
		failed++
	}
	if len(res.Jobs) != len(c.csv) {
		probs = append(probs, fmt.Sprintf("%d jobs reported, sweep has %d", len(res.Jobs), len(c.csv)))
		failed++
	}
	if got, err := os.ReadFile(filepath.Join(dir, c.summaryName)); err != nil || !bytes.Equal(got, c.summary) {
		probs = append(probs, "sweep summary differs from the uninterrupted run")
		if failed == 0 {
			failed = 1
		}
	}
	return failed, append(probs, tracedProblems(res)...)
}

// selfTest proves the output check is not vacuous: it copies a
// repetition that passed, damages one output file at a time, and
// requires the same check to reject every damaged copy.
func selfTest(dir, scratch string, damage []string, check func(dir string) bool) error {
	for _, name := range damage {
		bad := filepath.Join(scratch, "selftest")
		if err := os.RemoveAll(bad); err != nil {
			return err
		}
		if err := copyDir(dir, bad); err != nil {
			return err
		}
		path := filepath.Join(bad, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		if check(bad) {
			return fmt.Errorf("self-test: the check accepted a damaged %s", name)
		}
		if err := os.RemoveAll(bad); err != nil {
			return err
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
