package gpu

import (
	"math/bits"

	"attila/internal/core"
	"attila/internal/emu/fragemu"
	"attila/internal/emu/shaderemu"
	"attila/internal/emu/texemu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// TexReqMsg is a quad texture request travelling from a shader unit
// through the texture crossbar to a texture unit.
type TexReqMsg struct {
	core.DynObject
	Shader  int
	Slot    int // thread slot within the shader
	Req     *shaderemu.TexRequest
	Texture *texemu.Texture

	// spent piggybacks a consumed TexRepMsg back to the texture units
	// for recycling. Carries no simulation state.
	spent *TexRepMsg
}

// TexRepMsg carries the filtered texels back.
type TexRepMsg struct {
	core.DynObject
	Shader int
	Slot   int
	Result [shaderLanes]vmath.Vec4

	// spent piggybacks the consumed TexReqMsg back to its issuing
	// shader for recycling.
	spent *TexReqMsg
}

type threadState uint8

const (
	threadFree threadState = iota
	threadRunning
	threadBlockedTex
	threadWaitSend // texture request built, waiting for crossbar room
	threadDone
)

type shaderThread struct {
	state   threadState
	work    *ShaderWork
	emu     *shaderemu.Emulator
	t       *shaderemu.Thread
	ready   [isa.MaxTemps]int64 // temp register scoreboard
	pending *TexReqMsg
	arrival int64 // for in-order scheduling
}

// ShaderUnit is one multithreaded shader processor (paper §2.3): an
// in-order pipeline (fetch, decode, 1-9 execution stages, write back)
// that hides instruction and texture latency by interleaving threads,
// each thread executing a group of four shader inputs in lockstep.
type ShaderUnit struct {
	core.BoxBase
	cfg        *Config
	idx        int
	vertexOnly bool

	workIn  *Flow
	workOut *Flow
	texReq  *Flow // to crossbar (nil for vertex-only units)
	texRep  *Flow // from crossbar

	threads []shaderThread
	rr      int
	seq     int64

	// Maintained thread-state class counts (updated by setState) so
	// the per-cycle scheduler can early-out instead of scanning every
	// thread slot: resident = non-free, blocked = waiting on a texture
	// request (sent or pending).
	resident int
	running  int
	blocked  int
	// runnable has bit i set exactly when thread slot i is
	// threadRunning (also kept by setState), so the window scheduler
	// finds the next issuable slot a word at a time.
	runnable []uint64

	// Texture message recycling (no simulation state): completed
	// requests come back on TexRepMsg.spent; consumed replies ride out
	// on the next TexReqMsg.spent. Both lists are touched only on this
	// box's clocking goroutine.
	freeReqs  []*TexReqMsg
	spentReps []*TexRepMsg

	statInstr   core.Shadow
	statBusy    core.Shadow
	statTexWait core.Shadow
	statThreads *core.Gauge
}

// NewShaderUnit builds shader unit idx. vertexOnly marks the
// dedicated vertex shaders of the non-unified model, which have no
// texture path.
func NewShaderUnit(sim *core.Simulator, cfg *Config, idx int, vertexOnly bool,
	workIn, workOut, texReq, texRep *Flow) *ShaderUnit {
	threads := cfg.ThreadsPerShader
	if vertexOnly {
		threads = cfg.VertexThreadsPerShader
	}
	s := &ShaderUnit{
		cfg: cfg, idx: idx, vertexOnly: vertexOnly,
		workIn: workIn, workOut: workOut, texReq: texReq, texRep: texRep,
		threads:  make([]shaderThread, threads),
		runnable: make([]uint64, (threads+63)/64),
	}
	s.Init(nameIdx("Shader", idx))
	sim.Stats.ShadowCounter(&s.statInstr, s.BoxName()+".instructions")
	sim.Stats.ShadowCounter(&s.statBusy, s.BoxName()+".busyCycles")
	sim.Stats.ShadowCounter(&s.statTexWait, s.BoxName()+".texWaitCycles")
	s.statThreads = sim.Stats.Gauge(s.BoxName() + ".threads")
	sim.Register(s)
	return s
}

// Clock implements core.Box.
func (s *ShaderUnit) Clock(cycle int64) {
	s.completeTextures(cycle)
	s.acceptWork(cycle)
	s.sendPendingTex(cycle)
	issued := s.issue(cycle)
	s.retire(cycle)

	s.statThreads.Set(float64(s.resident))
	if issued > 0 {
		s.statBusy.Inc()
	} else if s.resident > 0 && s.blocked == s.resident {
		s.statTexWait.Inc()
	}
}

// setState moves thread slot i between states, keeping the class
// counts and the runnable bitmask in sync. Every state transition
// must go through here.
func (s *ShaderUnit) setState(i int, ns threadState) {
	th := &s.threads[i]
	s.adjCount(th.state, -1)
	s.adjCount(ns, 1)
	th.state = ns
	if ns == threadRunning {
		s.runnable[i>>6] |= 1 << (i & 63)
	} else {
		s.runnable[i>>6] &^= 1 << (i & 63)
	}
}

func (s *ShaderUnit) adjCount(st threadState, d int) {
	switch st {
	case threadFree:
	case threadRunning:
		s.resident += d
		s.running += d
	case threadBlockedTex, threadWaitSend:
		s.resident += d
		s.blocked += d
	case threadDone:
		s.resident += d
	}
}

func (s *ShaderUnit) completeTextures(cycle int64) {
	if s.texRep == nil {
		return
	}
	for _, obj := range s.texRep.Recv(cycle) {
		rep := obj.(*TexRepMsg)
		s.texRep.Release(1)
		th := &s.threads[rep.Slot]
		if th.state != threadBlockedTex {
			panic("gpu: texture reply for non-blocked thread")
		}
		dst := th.t.Blocked.Dst
		th.emu.CompleteTexture(th.t, rep.Result)
		if dst.Bank == isa.BankTemp {
			th.ready[dst.Index] = cycle + 1
		}
		s.setState(rep.Slot, threadRunning)
		if th.t.Done {
			s.setState(rep.Slot, threadDone)
		}
		if sp := rep.spent; sp != nil {
			rep.spent = nil
			s.freeReqs = append(s.freeReqs, sp)
		}
		s.spentReps = append(s.spentReps, rep)
	}
}

func (s *ShaderUnit) acceptWork(cycle int64) {
	for _, obj := range s.workIn.Recv(cycle) {
		w := obj.(*ShaderWork)
		slot := -1
		for i := range s.threads {
			if s.threads[i].state == threadFree {
				slot = i
				break
			}
		}
		if slot < 0 {
			panic("gpu: shader received work with no free thread (flow credits broken)")
		}
		th := &s.threads[slot]
		emu := fragEmulator(w.Batch)
		if w.Kind == workVertex {
			emu = vtxEmulator(w.Batch)
		}
		th.work = w
		th.emu = emu
		if th.t == nil {
			th.t = emu.NewThread()
		} else {
			th.t.Reset(emu.Program().TempsUsed())
		}
		for i := range th.ready {
			th.ready[i] = 0
		}
		if w.Kind == workVertex {
			for l := 0; l < w.Vtx.Count; l++ {
				th.t.Active[l] = true
				th.t.In[l] = w.Vtx.In[l]
			}
		} else {
			// All four lanes run, including dead ones: texture
			// derivatives need complete quads (§2.2).
			for l := 0; l < shaderLanes; l++ {
				th.t.Active[l] = true
				th.t.In[l] = w.Frag.In[l]
			}
		}
		s.setState(slot, threadRunning)
		th.arrival = s.seq
		s.seq++
	}
}

// getTexReq pops a recycled request message (fully zeroed) or
// allocates one, and gives a waiting spent reply its ride back to the
// texture units.
func (s *ShaderUnit) getTexReq() *TexReqMsg {
	var msg *TexReqMsg
	if n := len(s.freeReqs); n > 0 {
		msg = s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
		*msg = TexReqMsg{}
	} else {
		msg = &TexReqMsg{}
	}
	if n := len(s.spentReps); n > 0 {
		msg.spent = s.spentReps[n-1]
		s.spentReps = s.spentReps[:n-1]
	}
	return msg
}

func (s *ShaderUnit) sendPendingTex(cycle int64) {
	if s.blocked == 0 {
		return
	}
	for i := range s.threads {
		th := &s.threads[i]
		if th.state != threadWaitSend {
			continue
		}
		if !s.texReq.CanSend(cycle, 1) {
			return
		}
		s.texReq.Send(cycle, th.pending)
		th.pending = nil
		s.setState(i, threadBlockedTex)
	}
}

// pickThread selects the next thread allowed to issue. The thread
// window configuration issues from any ready thread (hiding texture
// latency); the in-order input queue configuration only ever executes
// the oldest resident thread, stalling while it waits (§5).
func (s *ShaderUnit) pickThread() int {
	if s.running == 0 {
		return -1
	}
	if s.cfg.Schedule == ScheduleInOrderQueue {
		oldest, best := -1, int64(0)
		for i := range s.threads {
			th := &s.threads[i]
			if th.state == threadFree || th.state == threadDone {
				continue
			}
			if oldest < 0 || th.arrival < best {
				oldest, best = i, th.arrival
			}
		}
		if oldest >= 0 && s.threads[oldest].state == threadRunning {
			return oldest
		}
		return -1
	}
	// Round robin: the first running slot at or after rr, wrapping.
	// The scan visits rr's word (from rr up), every other word in
	// order, then rr's word again (below rr); running > 0 guarantees
	// a hit.
	w := s.rr >> 6
	word := s.runnable[w] &^ (1<<(s.rr&63) - 1)
	for k := 0; k <= len(s.runnable); k++ {
		if word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			s.rr = i + 1
			if s.rr == len(s.threads) {
				s.rr = 0
			}
			return i
		}
		if w++; w == len(s.runnable) {
			w = 0
		}
		word = s.runnable[w]
	}
	return -1
}

func (s *ShaderUnit) issue(cycle int64) int {
	issued := 0
	attempts := len(s.threads)
	for n := 0; issued < s.cfg.ShaderIssueRate && n < attempts; n++ {
		i := s.pickThread()
		if i < 0 {
			break
		}
		th := &s.threads[i]
		in := th.emu.Program().Instr[th.t.PC]
		if !s.depsReady(cycle, th, in) {
			// In the window configuration another thread may issue
			// instead; round-robin already advanced, so just try
			// again next iteration (bounded by issue rate).
			continue
		}
		if in.Op.Info().Texture && (s.texReq == nil || th.pending != nil) {
			continue
		}
		executed := th.emu.Step(th.t)
		s.statInstr.Inc()
		issued++
		if th.t.Blocked != nil {
			msg := s.getTexReq()
			msg.DynObject = core.DynObject{ID: th.work.ID, Parent: th.work.Parent, Tag: "texreq"}
			msg.Shader, msg.Slot = s.idx, i
			msg.Req = th.t.Blocked
			msg.Texture = th.work.Batch.State.Textures[th.t.Blocked.Sampler]
			if s.texReq.CanSend(cycle, 1) {
				s.texReq.Send(cycle, msg)
				s.setState(i, threadBlockedTex)
			} else {
				th.pending = msg
				s.setState(i, threadWaitSend)
			}
			continue
		}
		info := executed.Op.Info()
		if info.HasDst && executed.Dst.Bank == isa.BankTemp {
			th.ready[executed.Dst.Index] = cycle + int64(s.execLatency(info.LatencyClass))
		}
		if th.t.Done {
			s.setState(i, threadDone)
		}
	}
	return issued
}

func (s *ShaderUnit) execLatency(class isa.LatClass) int {
	lat := 1
	switch class {
	case isa.LatSimple:
		lat = s.cfg.ExecLatSimple
	case isa.LatMAD:
		lat = s.cfg.ExecLatMAD
	case isa.LatScalar:
		lat = s.cfg.ExecLatScalar
	}
	if lat < 1 {
		lat = 1
	}
	return lat
}

// depsReady checks the scoreboard: all temp-register sources written
// by earlier instructions must have completed execution.
func (s *ShaderUnit) depsReady(cycle int64, th *shaderThread, in isa.Instruction) bool {
	info := in.Op.Info()
	for i := 0; i < info.NSrc; i++ {
		if in.Src[i].Bank == isa.BankTemp && th.ready[in.Src[i].Index] > cycle {
			return false
		}
	}
	// Write-after-write on a still-executing destination also stalls.
	if info.HasDst && in.Dst.Bank == isa.BankTemp && th.ready[in.Dst.Index] > cycle {
		return false
	}
	return true
}

func (s *ShaderUnit) retire(cycle int64) {
	if s.resident-s.running-s.blocked == 0 {
		return
	}
	for i := range s.threads {
		th := &s.threads[i]
		if th.state != threadDone {
			continue
		}
		if !s.workOut.CanSend(cycle, 1) {
			return
		}
		w := th.work
		if w.Kind == workVertex {
			for l := 0; l < w.Vtx.Count; l++ {
				w.Vtx.Out[l] = th.t.Out[l]
			}
		} else {
			prog := th.emu.Program()
			writesDepth := prog.Outputs()&(1<<isa.FragOutDepth) != 0
			for l := 0; l < shaderLanes; l++ {
				w.Frag.Color[l] = th.t.Out[l][isa.FragOutColor]
				if th.t.Killed[l] {
					w.Frag.Mask[l] = false
				}
				if writesDepth {
					w.Frag.Depth[l] = fragemu.DepthToFixed(th.t.Out[l][isa.FragOutDepth][0])
				}
			}
		}
		s.workOut.Send(cycle, w)
		s.setState(i, threadFree)
		th.work = nil
		s.workIn.Release(1) // thread slot is free again
	}
}

// Batch emulator caches: one ShaderEmulator per program+constants,
// shared by every thread of the batch. The command processor builds
// them eagerly in newBatch (shader units must not mutate shared batch
// state in parallel mode); the lazy path below only serves test
// harnesses that construct a BatchState directly.
func fragEmulator(b *BatchState) *shaderemu.Emulator {
	if b.fragEmu == nil {
		b.fragEmu = shaderemu.New(b.State.FragmentProg, b.State.FragConsts)
	}
	return b.fragEmu
}

func vtxEmulator(b *BatchState) *shaderemu.Emulator {
	if b.vtxEmu == nil {
		b.vtxEmu = shaderemu.New(b.State.VertexProg, b.State.VertConsts)
	}
	return b.vtxEmu
}
