package gearbox

import (
	"math"
	"slices"

	"gearbox/internal/mem"
)

// Step implementations. Each step functionally executes its share of the
// algorithm and fills st.Steps[i] with time and events. Times follow the
// DESIGN.md model: per-SPU busy time (instruction slots at the SPU clock plus
// unhidden row activations), network drain for the traffic the step routes,
// logic-layer core time where the step touches the logic layer, and a launch
// overhead per step broadcast (§4: "launch a kernel ... by broadcasting at
// most 8 instructions").
//
// The per-SPU loops of steps 2, 3, 5 and 6 are embarrassingly parallel —
// each subarray pipeline owns a contiguous output shard, its replica, its
// dirty list and its receive buffer — so they run on the machine's worker
// pool. Everything an SPU would push into shared state (dispatcher pairs,
// logic-layer contributions, network sends, event counters) is buffered
// per SPU or per worker during the parallel phase and folded after the
// barrier in ascending source SPU order, so every destination sees the
// exact serial receive/fold order and the results stay bit-identical to the
// Workers=1 path. Only the dispatcher-pair fold runs on the pool, sharded by
// destination receive buffer; the logic-layer folds are serial passes. DESIGN.md "Execution model" documents
// the rules. The worker bodies themselves are bound once at New (see
// scratch.go) so the steady-state hot path allocates nothing.

// step1FrontierDistribution broadcasts the long-activating frontier entries
// from the logic layer to all subarrays (§5 Step 1) and, for HypoGearboxV2,
// the whole input vector. On the host it also indexes f.Long for step 3's
// ascending walk when walk allows it.
//
//gearbox:steadystate
func (m *Machine) step1FrontierDistribution(f *Frontier, walk bool, st *IterStats) {
	m.resetScratch()
	m.net.Reset()
	m.longAsc = walk && m.indexLongFrontier(f)

	words := int64(2 * len(f.Long))
	if m.hypo {
		words = int64(2 * f.NNZ())
	}
	m.net.BroadcastFromLogic(words)

	s := &st.Steps[0]
	s.StallRounds = 1
	s.TimeNs = m.cfg.Tim.LaunchNs + m.net.DrainNs() + float64(words)*m.cfg.Tim.LogicSRAMNs
	s.Events.BroadcastWords = words
	s.Events.LogicOps = words
	s.Events.NetHopWords = m.net.HopWords()
	s.Events.TSVWords = m.net.TSVWords()
}

// indexLongFrontier records each long activation's position in longPos and
// reports true when f.Long is strictly ascending over long columns. Any
// other list (unsorted, duplicated, or naming a column outside the long
// region) leaves longPos untouched and reports false.
//
//gearbox:steadystate
func (m *Machine) indexLongFrontier(f *Frontier) bool {
	prev := int32(-1)
	for _, fe := range f.Long {
		if fe.Index <= prev || fe.Index > m.plan.LastLong {
			return false
		}
		prev = fe.Index
	}
	for i, fe := range f.Long {
		m.longPos[fe.Index] = int32(i)
	}
	return true
}

// step2OffsetPacking packs (column offset, length, frontier value) triples
// per frontier entry (Fig. 10).
//
//gearbox:steadystate
func (m *Machine) step2OffsetPacking(f *Frontier, st *IterStats) {
	s := &st.Steps[1]
	s.StallRounds = 1
	for i := range m.scr.packPW {
		m.scr.packPW[i] = packCounters{}
	}
	m.pool.ForEachNamed("step2-pack", m.plan.NumSPUs, m.fnStep2)
	var instrs, acts int64
	for _, c := range m.scr.packPW {
		instrs += c.instrs
		acts += c.acts
	}
	m.busyStats(s)
	s.TimeNs = m.cfg.Tim.LaunchNs + maxOf(m.busy)*m.refreshFactor()
	s.Events.SPUInstrs = instrs
	s.Events.RandRowActs = acts
}

// step3Counters is the per-worker slice of IterStats/Events fields the
// parallel phase of step 3 accumulates; they reduce after the barrier.
type step3Counters struct {
	ev                             Events
	localAccums, remoteAccums      int64
	longAccums, cleanHits          int64
	activatedColumns, processedNNZ int64
}

// step3SPUBody is SPU k's share of step 3, run on worker w: stream the
// activated columns and long-column fragments, multiply, and route each
// contribution. Shard-private compute only — SPU k touches its own output
// shard, replica, emit buckets and error stream; shared-state effects are
// deferred to the ordered merge.
//
//gearbox:steadystate
func (m *Machine) step3SPUBody(w, k int) {
	f := m.curF
	c := &m.scr.s3PW[w]
	e := &m.emit[k]
	var instr, randActs, seqActs int64
	// Per-SPU accumulation counts: folded into the per-worker counters after
	// the loop, and published to the telemetry arrays (SPU k is visited by
	// exactly one worker per iteration, so plain stores race-free).
	var locA, remA, lonA int64
	lastRow := int64(-1)
	lastRepRow := int64(-1)
	replicate := m.replicate && m.plan.LastLong >= 0 && !m.hypo

	accumulate := func(r int32, contribution float32) {
		contribution = m.corrupt(k, contribution)
		c.ev.ALUOps += 2 // ⊗ then ⊕
		owner := m.plan.OwnerOf[r]
		switch {
		case m.hypo:
			// Everything accumulates in the logic layer's SRAM; the
			// read-modify-write itself happens in the ordered merge.
			instr += m.instrCosts.macRemote
			e.logicPairs++
			e.logicIdx = append(e.logicIdx, r)            //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			e.logicVal = append(e.logicVal, contribution) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			locA++
		case owner == int32(k):
			instr += m.instrCosts.macLocal
			old := m.output[r]
			if m.sem.IsZero(old) {
				// Fig. 11: the clean indicator pair takes the dispatcher
				// round trip inside the bank. enc = ^r marks it clean.
				b := m.dstBlockOf[k]
				e.bKey[b] = append(e.bKey[b], uint64(uint32(k))<<32|uint64(uint32(^r))) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
				e.bVal[b] = append(e.bVal[b], 0)                                        //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
				e.sentPairs++
				c.cleanHits++
			}
			m.output[r] = m.sem.Add(old, contribution)
			locA++
			if row := int64(r) >> 6; row != lastRow {
				randActs++
				lastRow = row
			}
		case r <= m.plan.LastLong:
			lonA++
			if replicate {
				rep := m.replica(k)
				instr += m.instrCosts.macLocal
				old := rep[r]
				if m.sem.IsZero(old) {
					m.dirtyLong[k] = append(m.dirtyLong[k], r) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
				}
				rep[r] = m.sem.Add(old, contribution)
				if row := int64(r) >> 6; row != lastRepRow {
					randActs++
					lastRepRow = row
				}
			} else {
				// V2: send the contribution down to the logic layer.
				instr += m.instrCosts.macRemote
				e.logicPairs++
				e.logicIdx = append(e.logicIdx, r)            //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
				e.logicVal = append(e.logicVal, contribution) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			}
		default:
			// Remote accumulation: dispatch toward the owner's bank.
			instr += m.instrCosts.macRemote
			b := m.dstBlockOf[owner]
			e.bKey[b] = append(e.bKey[b], uint64(uint32(owner))<<32|uint64(uint32(r))) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			e.bVal[b] = append(e.bVal[b], contribution)                                //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			e.sentPairs++
			remA++
		}
	}

	for _, fe := range f.Local[k] {
		rows, vals := m.plan.Matrix.Col(fe.Index)
		c.activatedColumns++
		n := rows.Len()
		c.processedNNZ += int64(n)
		// One width branch per column, not per entry: the two loops are
		// the 16- and 32-bit specializations of the same stream.
		if wide := rows.Wide(); wide != nil {
			for i, r := range wide {
				accumulate(r, m.sem.Mul(vals[i], fe.Value))
			}
		} else {
			for i, r := range rows.Narrow() {
				accumulate(int32(r), m.sem.Mul(vals[i], fe.Value))
			}
		}
		seqActs += int64(2*n)/int64(m.cfg.Geo.WordsPerRow()) + 1
	}
	// Long columns: stream SPU k's segment (owned fragment, then spill) of
	// every activated long column, in f.Long order.
	p := m.plan
	lo, hi := p.LongSPU[k], p.LongSPU[k+1]
	segment := func(j int32, x float32) {
		a, b := p.LongOff[j], p.LongOff[j+1]
		for e := a; e < b; e++ {
			accumulate(p.LongRow[e], m.sem.Mul(p.LongVal[e], x))
		}
		n := int64(b - a)
		c.processedNNZ += n
		seqActs += 2*n/int64(m.cfg.Geo.WordsPerRow()) + 1
	}
	if m.longAsc {
		// f.Long ascends, so k's ascending columns meet it in its own
		// order: O(k's pairs), however long the frontier.
		for j := lo; j < hi; j++ {
			if pos := m.longPos[p.LongCol[j]]; pos >= 0 {
				segment(j, f.Long[pos].Value)
			}
		}
	} else {
		// Caller order, duplicates included: the per-SPU fold order is the
		// caller's, which float semirings can observe.
		cols := p.LongCol[lo:hi]
		for _, fe := range f.Long {
			if i, ok := slices.BinarySearch(cols, fe.Index); ok {
				segment(lo+int32(i), fe.Value)
			}
		}
	}

	m.busy[k] = float64(instr)*m.cyc + float64(randActs)*m.stallNs(m.instrCosts.macLocal)
	c.ev.SPUInstrs += instr
	c.ev.RandRowActs += randActs
	c.ev.SeqRowActs += seqActs
	c.localAccums += locA
	c.remoteAccums += remA
	c.longAccums += lonA
	if m.tel != nil {
		m.telLocal[k] = locA
		m.telRemote[k] = remA
		m.telLng[k] = lonA
	}
}

// step3LocalAccumulations is the heart of the algorithm (Fig. 11): every SPU
// streams its activated columns and long-column fragments, multiplies, and
// either accumulates locally, reduces into its replica of the long region,
// sends the contribution toward the logic layer, or dispatches it as a
// remote accumulation.
//
// The per-SPU loops run on the worker pool; each SPU buffers its dispatcher
// pairs and logic-layer contributions in m.emit[k], and the ordered merge
// below the barrier folds them.
//
//gearbox:steadystate
func (m *Machine) step3LocalAccumulations(f *Frontier, st *IterStats) {
	m.net.Reset()

	s := &st.Steps[2]
	s.StallRounds = 1

	scr := &m.scr
	for i := range scr.s3PW {
		scr.s3PW[i] = step3Counters{}
	}
	// Reset before any compute: in the pipelined path merges of early
	// chunks run concurrently with later compute regions.
	m.mergeCleanHits = 0

	// Software-pipelined compute + ordered merge (pipeline.go). Compute is
	// shard-private per SPU. The pair merge is sharded by destination
	// receive buffer, each owned by exactly one guided block; the logic
	// merge is one serial pass. Every merge pass scans its chunk's sources
	// in ascending SPU order, so per-destination receive order and per-slot
	// float fold order are exactly the serial merge's at any chunk width.
	nSPU := m.plan.NumSPUs
	nc := (nSPU + m.chunkSPUs - 1) / m.chunkSPUs
	if m.pool.Workers() == 1 || nc == 1 {
		// No overlap to win: compute everything, then merge everything.
		m.pool.ForEachDynamic("step3-compute", nSPU, m.chunkSPUs, m.fnStep3)
		m.mergeLo, m.mergeHi = 0, nSPU
		m.runStep3Merge()
	} else {
		m.pipe.reset(nc)
		go m.fnMergeStage() //gearbox:alloc-ok one merge-stage goroutine spawn per iteration; bounded, not per-entry
		for c := 0; c < nc; c++ {
			// Double-buffer backpressure: at most two chunks of un-merged
			// emit data in flight.
			m.pipe.waitMerged(c - 2)
			lo := c * m.chunkSPUs
			hi := lo + m.chunkSPUs
			if hi > nSPU {
				hi = nSPU
			}
			m.chunkBase = lo
			m.pool.ForEachDynamic("step3-compute", hi-lo, 1, m.fnStep3Chunk)
			m.pipe.doneCompute(c)
		}
		m.pipe.waitMerged(nc - 1) // drain the merge stage
	}

	var ev Events
	for i := range scr.s3PW {
		c := &scr.s3PW[i]
		ev.Add(c.ev)
		st.LocalAccums += c.localAccums
		st.RemoteAccums += c.remoteAccums
		st.LongAccums += c.longAccums
		st.CleanHits += c.cleanHits
		st.ActivatedColumns += c.activatedColumns
		st.ProcessedNNZ += c.processedNNZ
	}

	st.CleanHits += m.mergeCleanHits

	// Serial tail: network sends and logic-layer traffic fold in ascending
	// SPU order, keeping link occupancy order worker-independent. The
	// per-bank receive counts are the pairs each bank's Dispatcher buffers
	// now and forwards in step 4, which reuses them.
	recvPerBank := scr.recvPerBank
	for i := range recvPerBank {
		recvPerBank[i] = 0
	}
	logicPairsPerVault := scr.logicPairsPerVault
	for i := range logicPairsPerVault {
		logicPairsPerVault[i] = 0
	}
	for k := 0; k < m.plan.NumSPUs; k++ {
		recvPerBank[m.bankOf[k]] += int64(len(m.recvIdx[k]))
		e := &m.emit[k]
		srcID := m.plan.SPUIDOf(k)
		if e.sentPairs > 0 {
			m.net.SendSPUToSPU(srcID, m.plan.DispatcherOf(k), e.sentPairs)
		}
		if e.logicPairs > 0 {
			m.net.SendToLogic(srcID, e.logicPairs)
			ev.LogicOps += 2 * e.logicPairs
			logicPairsPerVault[m.cfg.Geo.VaultOf(srcID.Bank)] += e.logicPairs
		}
	}
	// Counted while routing: each long activation processed one fragment set.
	st.ActivatedColumns += int64(len(f.Long))
	if m.longAsc {
		for _, fe := range f.Long {
			m.longPos[fe.Index] = -1
		}
	}

	// Receiving dispatchers buffer pairs concurrently with compute, one
	// Walker row (WordsPerRow/2 pairs) at a time.
	pairsPerRow := int64(m.cfg.Geo.WordsPerRow() / 2)
	dispBusy := 0.0
	var dispInstrs int64
	for _, n := range recvPerBank {
		rows := (n + pairsPerRow - 1) / pairsPerRow
		dispInstrs += rows * m.instrCosts.dispatchPerRow
		if b := float64(rows*m.instrCosts.dispatchPerRow)*m.cyc + float64(rows)*m.cfg.Tim.RowCycleNs; b > dispBusy {
			dispBusy = b
		}
		ev.SeqRowActs += rows
	}
	ev.DispatchInstrs += dispInstrs

	m.busyStats(s)
	logicBusy := 0.0
	for _, n := range logicPairsPerVault {
		if b := float64(n) * m.instrCosts.logicOpNsPerPair; b > logicBusy {
			logicBusy = b
		}
	}
	busy := maxOf(m.busy)
	t := busy
	if dispBusy > t {
		t = dispBusy
	}
	if logicBusy > t {
		t = logicBusy
	}
	if d := m.net.DrainNs(); d > t {
		t = d
	}
	ev.NetHopWords += m.net.HopWords()
	ev.TSVWords += m.net.TSVWords()

	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refreshFactor()
	s.Events = ev
}

// step4Dispatching forwards the buffered pairs from each bank's Dispatcher
// to the destination Compute SPUs over the line interconnect (§5 Step 4),
// honouring the §6 buffer-overflow stall protocol.
//
//gearbox:steadystate
func (m *Machine) step4Dispatching(st *IterStats) {
	m.net.Reset()
	s := &st.Steps[3]
	s.StallRounds = 1

	var ev Events
	for k := 0; k < m.plan.NumSPUs; k++ {
		if n := int64(len(m.recvIdx[k])); n > 0 {
			m.net.SendSPUToSPU(m.plan.DispatcherOf(k), m.plan.SPUIDOf(k), n)
		}
	}
	pairsPerRow := int64(m.cfg.Geo.WordsPerRow() / 2)
	dispBusy := 0.0
	rounds := 1
	for _, n := range m.scr.recvPerBank {
		rows := (n + pairsPerRow - 1) / pairsPerRow
		ev.DispatchInstrs += rows * m.instrCosts.dispatchPerRow
		ev.SeqRowActs += rows
		if b := float64(rows*m.instrCosts.dispatchPerRow)*m.cyc + float64(rows)*m.cfg.Tim.RowCycleNs; b > dispBusy {
			dispBusy = b
		}
		if r := int((n + int64(m.cfg.DispatchBufferPairs) - 1) / int64(m.cfg.DispatchBufferPairs)); r > rounds {
			rounds = r
		}
	}
	ev.NetHopWords += m.net.HopWords()
	ev.TSVWords += m.net.TSVWords()

	t := dispBusy
	if d := m.net.DrainNs(); d > t {
		t = d
	}
	s.StallRounds = rounds
	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refreshFactor() + float64(rounds-1)*2*m.cfg.Tim.LaunchNs
	s.Events = ev
}

// step5RemoteAccumulations has every Compute SPU fold the received pairs
// into its output shard with the ScatterAccumulate kernel, appending
// clean-indicator indexes to the frontier list (§5 Step 5). Each SPU's fold
// only touches its own shard and dirty list, so the loop shards cleanly
// across the worker pool.
//
//gearbox:steadystate
func (m *Machine) step5RemoteAccumulations(st *IterStats) {
	s := &st.Steps[4]
	s.StallRounds = 1
	for i := range m.scr.scatPW {
		m.scr.scatPW[i] = scatCounters{}
	}
	m.pool.ForEachDynamic("step5-scatter", m.plan.NumSPUs, 0, m.fnStep5)
	var ev Events
	for i := range m.scr.scatPW {
		ev.Add(m.scr.scatPW[i].ev)
		st.CleanHits += m.scr.scatPW[i].cleanHits
	}
	m.busyStats(s)
	s.TimeNs = m.cfg.Tim.LaunchNs + maxOf(m.busy)*m.refreshFactor()
	s.Events = ev
}

// step6EmitBody is SPU k's frontier emission, run on worker w: sort the
// dirty list, emit the non-clean slots into the next frontier's bucket, and
// reset them to clean. Buckets come from the recycled frontier in m.curNext,
// so steady-state emission reuses the caller's returned-and-recycled arrays.
//
//gearbox:steadystate
func (m *Machine) step6EmitBody(w, k int) {
	dl := m.dirty[k]
	if len(dl) == 0 {
		return
	}
	c := &m.scr.emitPW[w]
	slices.Sort(dl)
	lastRow, randActs := int64(-1), int64(0)
	entries := m.curNext.Local[k][:0]
	for i, idx := range dl {
		if i > 0 && dl[i-1] == idx {
			continue // clean-pair + apply rebuild may duplicate
		}
		v := m.output[idx]
		if m.sem.IsZero(v) {
			continue // accumulated back to the clean value
		}
		entries = append(entries, FrontierEntry{Index: idx, Value: v}) //gearbox:alloc-ok recycled frontier bucket; grows to its high-water mark
		m.output[idx] = m.clean
		if row := int64(idx) >> 6; row != lastRow {
			randActs++
			lastRow = row
		}
	}
	m.curNext.Local[k] = entries
	n := int64(len(entries))
	m.busy[k] += float64(n*m.instrCosts.frontierEmit)*m.cyc + float64(randActs)*m.stallNs(m.instrCosts.frontierEmit)
	c.ev.SPUInstrs += n * m.instrCosts.frontierEmit
	c.ev.RandRowActs += randActs
	c.frontierOut += n
}

// reduceReplicas is the V3 replica reduction (Fig. 7b), one ordered pass
// over SPUs ascending, then each SPU's dirty slots in emission order, so
// every slot's float fold order is fixed. The reduction is hierarchical:
// each SPU sends its dirty replica slots to the bank's Dispatcher over the
// line interconnect, the Dispatcher combines same-slot partials, and only
// the bank-level partials cross the TSVs — without this the replicated
// scheme would push SPUs x slots pairs at the logic layer and lose its
// advantage. A bank's distinct-slot set is epoch-stamped in slotMark: a
// bank's SPUs are contiguous in flat order, so one epoch bump per bank
// visited separates the banks, and the marks recycle across iterations
// without a clear.
//
//gearbox:steadystate
func (m *Machine) reduceReplicas(ev *Events) {
	scr := &m.scr
	for i := range scr.bankSlotCount {
		scr.bankSlotCount[i] = 0
	}
	marks := scr.slotMark
	bank := int32(-1)
	for k := 0; k < m.plan.NumSPUs; k++ {
		dl := m.dirtyLong[k]
		if len(dl) == 0 {
			continue
		}
		if m.bankOf[k] != bank {
			bank = m.bankOf[k]
			if scr.epoch == math.MaxInt32 { // int32 wrap: reset marks, restart epochs
				clear(marks)
				scr.epoch = 0
			}
			scr.epoch++
		}
		rep := m.replicas[k]
		for _, r := range dl {
			old := m.logicAcc[r]
			if m.sem.IsZero(old) {
				m.logicDirtyAdd(r)
			}
			m.logicAcc[r] = m.sem.Add(old, rep[r])
			rep[r] = m.clean
			if marks[r] != scr.epoch {
				marks[r] = scr.epoch
				scr.bankSlotCount[bank]++
			}
		}
		// Line traffic SPU -> Dispatcher.
		n := int64(len(dl))
		m.net.SendSPUToSPU(m.plan.SPUIDOf(k), m.plan.DispatcherOf(k), n)
		ev.SPUInstrs += n * 2 // read replica slot + send
	}
	pairsPerRow := int64(m.cfg.Geo.WordsPerRow() / 2)
	for bf, n := range scr.bankSlotCount {
		if n == 0 {
			continue
		}
		id := mem.SPUID{Layer: bf / m.cfg.Geo.BanksPerLayer, Bank: bf % m.cfg.Geo.BanksPerLayer, SPU: m.cfg.Geo.SPUsPerBank() - 1}
		m.net.SendToLogic(id, n)
		rows := (n + pairsPerRow - 1) / pairsPerRow
		ev.DispatchInstrs += rows * m.instrCosts.dispatchPerRow
		scr.logicPerVault[m.cfg.Geo.VaultOf(id.Bank)] += float64(n) * m.instrCosts.logicOpNsPerPair
		ev.LogicOps += 2 * n
	}
}

// step6Applying performs the optional Applying op, reduces the replicated
// long regions in the logic layer (V3), emits the next frontier from the
// newly non-clean slots, and resets the output vector to clean indicators
// (§5 Step 6). The dense apply and the frontier emission shard across the
// worker pool (each SPU owns its output range and dirty list); the V3
// replica reduction runs first, as one ordered pass (reduceReplicas).
//
//gearbox:steadystate
func (m *Machine) step6Applying(opts IterateOptions, st *IterStats) *Frontier {
	m.net.Reset()
	s := &st.Steps[5]
	s.StallRounds = 1
	var ev Events
	scr := &m.scr
	logicPerVault := scr.logicPerVault
	for i := range logicPerVault {
		logicPerVault[i] = 0
	}

	// V3: reduce per-SPU replicas into the logic layer before the apply,
	// which folds into the same accumulator.
	if m.replicate && m.plan.LastLong >= 0 {
		m.reduceReplicas(&ev)
	}

	// Optional Applying op over the whole vector, sharded by output range.
	if opts.Apply != nil {
		alpha, y := opts.Apply.Alpha, opts.Apply.Y
		for i := range scr.applyPW {
			scr.applyPW[i] = Events{}
		}
		m.pool.ForEachNamed("step6-apply", m.plan.NumSPUs, m.fnApply)
		for i := range scr.applyPW {
			ev.Add(scr.applyPW[i])
		}
		for r := int32(0); r <= m.plan.LastLong; r++ {
			m.logicAcc[r] = m.sem.Add(m.logicAcc[r], m.sem.Mul(alpha, y[r]))
			if !m.sem.IsZero(m.logicAcc[r]) {
				m.logicDirtyAdd(r)
			}
			ev.LogicOps += 2
		}
	} else {
		for k := range m.busy {
			m.busy[k] = 0
		}
	}

	// Emit the next frontier and reset output slots to clean. Each SPU
	// sorts its own dirty list and writes its own frontier bucket.
	m.curNext = m.getFrontier()
	next := m.curNext
	for i := range scr.emitPW {
		scr.emitPW[i] = emitCounters{}
	}
	m.pool.ForEachDynamic("step6-emit", m.plan.NumSPUs, 0, m.fnEmit)
	for i := range scr.emitPW {
		ev.Add(scr.emitPW[i].ev)
		st.FrontierOut += scr.emitPW[i].frontierOut
	}
	// Long outputs become next-iteration logic-layer frontier entries.
	if len(m.logicDirty) > 0 {
		slices.Sort(m.logicDirty)
		for i, r := range m.logicDirty {
			if i > 0 && m.logicDirty[i-1] == r {
				continue
			}
			v := m.logicAcc[r]
			if m.sem.IsZero(v) {
				continue
			}
			next.Long = append(next.Long, FrontierEntry{Index: r, Value: v}) //gearbox:alloc-ok recycled frontier buffer; grows to its high-water mark
			m.logicAcc[r] = m.clean
			ev.LogicOps += 2
		}
		st.FrontierOut += int64(len(next.Long))
		m.logicDirty = m.logicDirty[:0]
	}

	t := maxOf(m.busy)
	if lb := maxOf(logicPerVault); lb > t {
		t = lb
	}
	if d := m.net.DrainNs(); d > t {
		t = d
	}
	ev.NetHopWords += m.net.HopWords()
	ev.TSVWords += m.net.TSVWords()
	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refreshFactor()
	s.Events = ev
	return next
}

// bankFlat flattens a bank coordinate for per-bank accounting arrays.
func bankFlat(g mem.Geometry, id mem.SPUID) int32 {
	return int32(id.Layer*g.BanksPerLayer + id.Bank)
}
