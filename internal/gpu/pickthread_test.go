package gpu

import (
	"math/rand"
	"testing"

	"attila/internal/core"
)

// refPickThread is the window scheduler's original modulo scan: the
// first running slot at or after rr, wrapping, advancing rr past it.
func refPickThread(states []threadState, rr *int) int {
	n := len(states)
	for k := 0; k < n; k++ {
		i := (*rr + k) % n
		if states[i] == threadRunning {
			*rr = (i + 1) % n
			return i
		}
	}
	return -1
}

// The ready-bitmask pick must visit threads in exactly the order of
// the modulo scan it replaces, including across word boundaries and
// for thread counts that do not fill the last word.
func TestPickThreadMatchesModuloScan(t *testing.T) {
	for _, n := range []int{1, 28, 63, 64, 65, 130} {
		cfg := Baseline()
		cfg.Schedule = ScheduleWindow
		cfg.ThreadsPerShader = n
		s := NewShaderUnit(core.NewSimulator(0), &cfg, 0, false, nil, nil, nil, nil)
		rng := rand.New(rand.NewSource(int64(n)))
		ref := make([]threadState, n)
		refRR := 0
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				i, ns := rng.Intn(n), threadState(rng.Intn(int(threadDone)+1))
				s.setState(i, ns)
				ref[i] = ns
			case op < 9:
				got := s.pickThread()
				want := refPickThread(ref, &refRR)
				if got != want || s.rr != refRR {
					t.Fatalf("n=%d step %d: pick %d rr %d, modulo scan picks %d rr %d",
						n, step, got, s.rr, want, refRR)
				}
			default:
				// A restored checkpoint may leave rr anywhere.
				s.rr = rng.Intn(n)
				refRR = s.rr
			}
		}
	}
}
