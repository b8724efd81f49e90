package mem

import (
	"bytes"
	"testing"

	"attila/internal/chkpt"
)

// countingHooks synthesizes every fill and encodes a line into a
// reused scratch buffer whose length depends on the key (16, 32, 48 or
// 64 bytes, all one transaction), counting Encode calls. The scratch
// reuse is what real compressing hooks do: a cache that kept the
// returned slice instead of copying it would write another line's
// bytes back.
type countingHooks struct {
	encodes *int
	scratch *[]byte
}

func newCountingHooks() countingHooks {
	return countingHooks{encodes: new(int), scratch: new([]byte)}
}

func (countingHooks) FillPlan(key uint32) FillPlan       { return FillPlan{Synth: true} }
func (countingHooks) Synthesize(key uint32, line []byte) { clear(line) }
func (countingHooks) Decode(key uint32, raw, line []byte) {
	panic("countingHooks never fetches")
}

func (h countingHooks) Encode(key uint32, line []byte) (uint32, []byte) {
	*h.encodes++
	*h.scratch = encodedLine(key, line, (*h.scratch)[:0])
	return key, *h.scratch
}

// encodedLine is countingHooks' encoding of line, appended to dst.
func encodedLine(key uint32, line, dst []byte) []byte {
	n := 16 * (1 + int(key>>12)%4)
	for i := 0; i < n; i++ {
		dst = append(dst, line[i]^byte(key>>12))
	}
	return dst
}

// encodeHarness is a one-set cache of 64-byte lines (one transaction
// each) on a single-transaction port, so a flush of several dirty lines
// must retry across cycles.
func newEncodeHarness(t *testing.T) (*cacheHarness, countingHooks) {
	t.Helper()
	hooks := newCountingHooks()
	cfg := CacheConfig{Name: "C", Sets: 1, Assoc: 4, LineBytes: TransactionSize, MissQ: 4, PortLimit: 1}
	return newCacheHarness(t, cfg, hooks), hooks
}

var encodeKeys = []uint32{0x1000, 0x2000, 0x3000, 0x4000}

// dirtyAll makes every key resident and dirty with a per-key pattern
// offset by salt.
func dirtyAll(t *testing.T, h *cacheHarness, salt byte) {
	t.Helper()
	for _, k := range encodeKeys {
		if !h.cache.Probe(k) {
			h.fetchLine(t, k)
		}
		writePattern(h, k, salt)
	}
}

func writePattern(h *cacheHarness, key uint32, salt byte) {
	data := make([]byte, TransactionSize)
	for i := range data {
		data[i] = byte(i) + byte(key>>8) + salt
	}
	h.cache.Write(key, 0, data)
}

// flushAll retries FlushDirty every cycle until every writeback has
// issued and drained, returning the number of FlushDirty calls.
func flushAll(t *testing.T, h *cacheHarness) int {
	t.Helper()
	calls := 0
	for {
		calls++
		if h.cache.FlushDirty(h.cycle) {
			break
		}
		if calls > 1000 {
			t.Fatal("flush never completed")
		}
		h.step()
	}
	for i := 0; i < 1000 && !h.cache.Quiesce(); i++ {
		h.step()
	}
	if !h.cache.Quiesce() {
		t.Fatal("cache did not quiesce after flush")
	}
	return calls
}

// checkMemory asserts every key's memory holds the encoding of its
// current cache line.
func checkMemory(t *testing.T, h *cacheHarness) {
	t.Helper()
	line := make([]byte, TransactionSize)
	for _, k := range encodeKeys {
		h.cache.Read(k, 0, line)
		want := encodedLine(k, line, nil)
		got := h.gm.data[k : k+uint32(len(want))]
		if !bytes.Equal(got, want) {
			t.Errorf("memory at %#x holds %x, want encoding %x", k, got, want)
		}
	}
}

// Encode runs exactly once per line written back, however many cycles
// the flush spends waiting for port budget, and victim writebacks
// count the same way.
func TestCacheEncodesOncePerWriteback(t *testing.T) {
	h, hooks := newEncodeHarness(t)
	dirtyAll(t, h, 0)
	calls := flushAll(t, h)
	if calls < len(encodeKeys) {
		t.Fatalf("flush finished in %d calls; the port limit should force retries", calls)
	}
	if *hooks.encodes != len(encodeKeys) {
		t.Fatalf("%d encodes for %d lines written back over %d flush calls", *hooks.encodes, len(encodeKeys), calls)
	}
	checkMemory(t, h)

	// Dirty the lines again and evict two of them with new fills: the
	// victim writebacks encode once each.
	dirtyAll(t, h, 7)
	for _, k := range []uint32{0x5000, 0x6000} {
		h.fetchLine(t, k)
	}
	for i := 0; i < 1000 && !h.cache.Quiesce(); i++ {
		h.step()
	}
	flushAll(t, h)
	if got, want := float64(*hooks.encodes), h.cache.statEvicts.Value(); got != want {
		t.Fatalf("%v encodes, %v lines written back", got, want)
	}
	if *hooks.encodes != 2*len(encodeKeys) {
		t.Fatalf("%d encodes, want %d", *hooks.encodes, 2*len(encodeKeys))
	}
}

// A Write between two FlushDirty retries invalidates the line's
// memoized encoding: the retry encodes the new data.
func TestCacheWriteDuringFlushReencodes(t *testing.T) {
	h, hooks := newEncodeHarness(t)
	dirtyAll(t, h, 0)
	if h.cache.FlushDirty(h.cycle) {
		t.Fatal("first flush call issued every line despite the port limit")
	}
	if *hooks.encodes != len(encodeKeys) {
		t.Fatalf("first flush call: %d encodes, want %d", *hooks.encodes, len(encodeKeys))
	}
	last := encodeKeys[len(encodeKeys)-1]
	writePattern(h, last, 99)
	h.step()
	flushAll(t, h)
	if *hooks.encodes != len(encodeKeys)+1 {
		t.Fatalf("%d encodes, want %d (one re-encode of the rewritten line)", *hooks.encodes, len(encodeKeys)+1)
	}
	checkMemory(t, h)
}

// A restore taken while a flush is retrying drops every memoized
// encoding: the restored lines carry other data, and the retry must
// write that, not the stale bytes encoded before the restore.
func TestCacheRestoreMidFlushReencodes(t *testing.T) {
	h, hooks := newEncodeHarness(t)
	dirtyAll(t, h, 0)
	if h.cache.FlushDirty(h.cycle) {
		t.Fatal("first flush call issued every line despite the port limit")
	}

	other, _ := newEncodeHarness(t)
	dirtyAll(t, other, 42)
	var e chkpt.Encoder
	other.cache.SnapshotTo(&e)
	if err := h.cache.RestoreFrom(chkpt.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	h.step()
	flushAll(t, h)
	if *hooks.encodes != 2*len(encodeKeys) {
		t.Fatalf("%d encodes, want %d (every restored dirty line re-encoded)", *hooks.encodes, 2*len(encodeKeys))
	}
	checkMemory(t, h)
}
