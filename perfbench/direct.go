package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gearbox"
	"gearbox/internal/apps"
	core "gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/mtx"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// setupReps is how many fresh builds one run times; setup_s is their
// median, because a single sub-second build on a shared host moves by more
// than any bound worth setting.
const setupReps = 5

// v3Config is the GearboxV3 partition and machine configuration
// gearbox.NewSystem assembles for a zero Options with the given Workers.
func v3Config(workers int) (partition.Config, core.Config) {
	pcfg, err := gearbox.V3.PartitionConfig(partition.ScaledLongFrac, gearbox.Shuffled, 0)
	if err != nil {
		panic(err) // V3 is a valid version
	}
	pcfg.Workers = workers
	mcfg := core.DefaultConfig()
	mcfg.Workers = workers
	return pcfg, mcfg
}

// setupSamples are the per-build layer times of a run's setup phase.
type setupSamples struct {
	total, gen, mtx, partition, newMs []float64
	mtxBytes                          int64
}

// directWorkload calls internal/apps directly on one pooled machine from
// one client: a closed loop, as an experiment driver runs.
type directWorkload struct {
	name    string
	workers int
	// load produces the matrix from the seed, recording its own layer time;
	// it is the first part of setup.
	load func(s *setupSamples) (*sparse.CSC, error)
	// requests draws the fixed request list.
	requests func(m *sparse.CSC) []appReq
}

func runPRTwitter(o options) (*report, error) {
	scale, ef := 15, 56.0
	if o.tiny {
		scale, ef = 10, 28
	}
	rmat := gen.RMATConfig{
		Scale: scale, EdgeFactor: ef, A: 0.65, B: 0.15, C: 0.15, Noise: 0.10,
		Seed: subSeed(o.seed, "pr-twitter/rmat"), Workers: runtime.NumCPU(),
	}
	w := directWorkload{
		name:    "pr-twitter",
		workers: runtime.NumCPU(),
		load: func(s *setupSamples) (*sparse.CSC, error) {
			t0 := time.Now()
			m, err := gen.RMAT(rmat)
			s.gen = append(s.gen, time.Since(t0).Seconds())
			return m, err
		},
		requests: func(*sparse.CSC) []appReq {
			reqs := make([]appReq, o.seconds)
			for i := range reqs {
				reqs[i] = appReq{app: "pr"}
			}
			return reqs
		},
	}
	return runDirect(w, o, nil)
}

func runBFSRoad(o options) (*report, error) {
	side := 512
	if o.tiny {
		side = 48
	}
	grid := gen.GridConfig{Width: side, Height: side, DropFrac: 0.08, ShortcutFrac: 0.05, Seed: subSeed(o.seed, "bfs-road/grid")}
	path := filepath.Join(o.out, fmt.Sprintf("road-%d-%d.mtx", side, o.seed))

	// The .mtx file is written before timing; setup ingests it, as a user
	// loading road_usa would.
	t0 := time.Now()
	orig, err := gen.Grid(grid)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	if err := writeMTX(path, orig); err != nil {
		return nil, err
	}
	defer os.Remove(path)

	w := directWorkload{
		name:    "bfs-road",
		workers: 1,
		load: func(s *setupSamples) (*sparse.CSC, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			t0 := time.Now()
			m, err := mtx.ReadCSCOpts(f, mtx.Options{Workers: 1})
			s.mtx = append(s.mtx, time.Since(t0).Seconds())
			if fi, err := f.Stat(); err == nil {
				s.mtxBytes = fi.Size()
			}
			return m, err
		},
		requests: func(m *sparse.CSC) []appReq {
			// Each distinct source runs twice, so the sim fence also compares
			// repeats within a run.
			rng := rand.New(rand.NewSource(subSeed(o.seed, "bfs-road/sources")))
			var reqs []appReq
			for _, v := range giantSources(m, rng, o.seconds) {
				reqs = append(reqs, appReq{app: "bfs", source: v}, appReq{app: "bfs", source: v})
			}
			rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
			return reqs
		},
	}
	return runDirect(w, o, func(m *sparse.CSC, rep *report) {
		rep.metrics["gen.build_s"] = genS
		if !m.Equal(orig) {
			rep.problem("bfs-road: the ingested matrix differs from the generated one")
		}
	})
}

// giantSources draws k distinct vertices of the largest connected component
// (of the symmetrized edge set), so every BFS or SSSP request traverses the
// bulk of the graph rather than a stray island, and the work per request
// varies little from seed to seed.
func giantSources(m *sparse.CSC, rng *rand.Rand, k int) []int32 {
	comp := apps.RefConnectedComponents(m)
	size := make(map[int32]int)
	for _, c := range comp {
		size[c]++
	}
	giant := comp[0]
	for _, c := range comp {
		if size[c] > size[giant] || (size[c] == size[giant] && c < giant) {
			giant = c
		}
	}
	var members []int32
	for v, c := range comp {
		if c == giant {
			members = append(members, int32(v))
		}
	}
	out := make([]int32, 0, k)
	for _, i := range rng.Perm(len(members)) {
		if len(out) == k {
			break
		}
		out = append(out, members[i])
	}
	return out
}

// writeMTX writes m as a Matrix Market coordinate file.
func writeMTX(path string, m *sparse.CSC) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mtx.Write(f, m.ToCOO()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTotals accumulates the host counters of a run's traced requests.
type tracedTotals struct {
	n                   int
	lat                 []float64
	iterations          int64
	mallocs, allocBytes uint64
	stepWall            time.Duration
	activated           int64
	busy, capacity      time.Duration
	steals              int64
	merge, overlap      time.Duration
	inflight            int
	sims                []simStats
}

// runDirect times setup and the request list of a direct workload.
// finish, when set, adds workload-specific metrics and checks.
func runDirect(w directWorkload, o options, finish func(*sparse.CSC, *report)) (*report, error) {
	rep := newReport()
	pcfg, mcfg := v3Config(w.workers)

	var ss setupSamples
	var m *sparse.CSC
	var plan *partition.Plan
	var mach *core.Machine
	for i := 0; i < setupReps; i++ {
		m, plan, mach = nil, nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, err = w.load(&ss); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if plan, err = partition.Build(m, mcfg.Geo, pcfg); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if mach, err = core.New(plan, semiring.PlusTimes{}, mcfg); err != nil {
			return nil, err
		}
		t3 := time.Now()
		ss.total = append(ss.total, t3.Sub(t0).Seconds())
		ss.partition = append(ss.partition, t2.Sub(t1).Seconds())
		ss.newMs = append(ss.newMs, ms(t3.Sub(t2)))
	}

	reqs := w.requests(m)
	rep.record["requests"] = len(reqs)
	rep.record["rows"], rep.record["nnz"], rep.record["long_cols"] = m.NumRows, m.NNZ(), plan.LastLong+1

	// References, once per distinct request, and the Workers=1 fence re-run
	// of the first request, all outside timing.
	refs := map[appReq]outcome{}
	for _, q := range reqs {
		if _, ok := refs[q]; !ok {
			refs[q] = q.reference(m)
		}
	}
	fence := simFence{}
	base := apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan}
	{
		serialCfg := mcfg
		serialCfg.Workers = 1
		serial, err := core.New(plan, semiring.PlusTimes{}, serialCfg)
		if err != nil {
			return nil, err
		}
		p := newProbe(&spanLog{})
		cfg := base
		cfg.Reuse, cfg.OnMachine = serial, p.attach
		p.arm(-1, -1, 0)
		out, err := reqs[0].run(m, cfg)
		if err != nil {
			return nil, err
		}
		p.detach()
		if err := reqs[0].check(out, refs[reqs[0]]); err != nil {
			rep.problem("workers=1 re-run: %v", err)
		}
		if err := fence.observe(reqs[0].String(), simOf(out).withLinks(p)); err != nil {
			rep.problem("%v", err)
		}
	}

	// Warm-up: the first request on the fresh machine fills its scratch
	// buffers and frontier pool. Its excess over the steady median is
	// gearbox.warmup_ms.
	cfg := base
	cfg.Reuse = mach
	t0 := time.Now()
	out, err := reqs[0].run(m, cfg)
	if err != nil {
		return nil, err
	}
	warm := ms(time.Since(t0))
	if err := reqs[0].check(out, refs[reqs[0]]); err != nil {
		rep.problem("warm-up: %v", err)
	}
	if err := fence.observe(reqs[0].String(), simOf(out)); err != nil {
		rep.problem("%v", err)
	}
	runtime.GC()

	log := &spanLog{}
	p := newProbe(log)
	var lat []float64 // untraced request walls, ms
	var tt tracedTotals
	var simNs float64
	var nnz int64
	cpu0, start := cpuTime(), time.Now()
	for i, q := range reqs {
		rep.attempted++
		cfg := base
		cfg.Reuse = mach
		traced := o.trace && i%2 == 1
		var ms0 runtime.MemStats
		var root int
		var t0 time.Time
		if traced {
			runtime.ReadMemStats(&ms0)
			cfg.OnMachine = p.attach
			root = log.add("apps.run", i, -1, 1, time.Time{}, time.Time{})
			t0 = p.arm(i, root, 1)
			log.spans[root].start = t0
		} else {
			t0 = time.Now()
		}
		out, err := q.run(m, cfg)
		t1 := time.Now()
		if err != nil {
			rep.failed++
			rep.problem("request %d (%s): %v", i, q, err)
			continue
		}
		sim := simOf(out)
		if traced {
			log.spans[root].end = t1
			c := p.detach()
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			sim = sim.withLinks(p)
			tt.add(c, sim, ms0, ms1)
			tt.lat = append(tt.lat, ms(t1.Sub(t0)))
		} else {
			lat = append(lat, ms(t1.Sub(t0)))
		}
		simNs += sim.TimeNs
		nnz += sim.ActivatedNNZ
		if err := q.check(out, refs[q]); err != nil {
			rep.failed++
			rep.problem("request %d (%s): %v", i, q, err)
			continue
		}
		if err := fence.observe(q.String(), sim); err != nil {
			rep.failed++
			rep.problem("request %d: %v", i, err)
		}
	}
	phase := time.Since(start)
	cpu := cpuTime() - cpu0

	rep.record["setup_s"] = statsOf(ss.total)
	rep.record["latency_ms"] = statsOf(lat)
	rep.record["sim_fingerprint"] = fence.fingerprint()
	if !o.trace {
		p, tail, ok := tailPercentile(lat)
		rep.record["latency_tail"] = map[string]any{"percentile": p, "samples": len(lat), "beyond_rule_met": ok}
		rep.metrics["setup_s"] = median(ss.total)
		rep.metrics["latency_p50_ms"] = median(lat)
		rep.metrics["latency_tail_ms"] = tail
		rep.metrics["sim_nnz_per_s"] = float64(nnz) / phase.Seconds()
		rep.metrics["cpu_ms_per_run"] = ms(cpu) / float64(len(reqs))
		rep.metrics["peak_rss_mb"] = peakRSSMiB()
		rep.metrics["sim_time_us"] = simNs / 1e3
		rep.metrics["ok_frac"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	} else {
		rep.metrics["gen.build_s"] = median(ss.gen)
		rep.metrics["mtx.read_csc_s"] = median(ss.mtx)
		rep.metrics["mtx.read_mb_per_s"] = 0
		if len(ss.mtx) > 0 {
			rep.metrics["mtx.read_mb_per_s"] = float64(ss.mtxBytes) / 1e6 / median(ss.mtx)
		}
		rep.metrics["partition.build_s"] = median(ss.partition)
		rep.metrics["partition.long_cols"] = float64(plan.LastLong + 1)
		rep.metrics["gearbox.new_ms"] = median(ss.newMs)
		rep.metrics["gearbox.warmup_ms"] = warm - median(lat)
		tt.report(rep, log)
		rep.metrics["trace.overhead_frac"] = median(tt.lat)/median(lat) - 1
		zeroServe(rep)
		rep.record["latency_traced_ms"] = statsOf(tt.lat)
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
		if err := log.writeChrome(path); err != nil {
			return nil, err
		}
		rep.record["trace_file"] = path
	}
	if finish != nil {
		finish(m, rep)
	}
	return rep, nil
}

// add folds one traced request into the totals.
func (t *tracedTotals) add(c hostCounters, sim simStats, ms0, ms1 runtime.MemStats) {
	t.n++
	t.iterations += int64(sim.Iterations)
	t.mallocs += ms1.Mallocs - ms0.Mallocs
	t.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	t.stepWall += c.stepWall
	t.activated += sim.ActivatedNNZ
	if c.poolOK {
		for _, b := range c.pool.WorkerBusyNs {
			t.busy += time.Duration(b)
		}
		t.capacity += time.Duration(c.pool.Workers) * c.stepWall
		t.steals += c.pool.Steals
		t.merge += time.Duration(c.pool.MergeNs)
		t.overlap += time.Duration(c.pool.OverlapNs)
	}
	t.inflight = max(t.inflight, c.inflight)
	t.sims = append(t.sims, sim)
}

// report sets the per-layer metrics the traced requests give: host self
// times from the spans, pool and allocation counters, and the modelled
// statistics, all per traced request.
func (t *tracedTotals) report(rep *report, log *spanLog) {
	n := float64(max(t.n, 1))
	self := log.selfTimes()
	perReq := func(name string) float64 { return ms(self[name]) / n }
	var sum time.Duration
	for _, d := range self { //gearbox:nondet-ok an integer sum does not depend on order
		sum += d
	}
	rep.metrics["gearbox.reset_ms"] = perReq("gearbox.reset")
	for k := 1; k <= 6; k++ {
		rep.metrics[fmt.Sprintf("gearbox.step%d_ms", k)] = perReq(fmt.Sprintf("gearbox.step%d", k))
	}
	rep.metrics["apps.self_ms"] = perReq("apps.run")
	rep.metrics["gearbox.iterate_ns_per_nnz"] = 0
	if t.activated > 0 {
		rep.metrics["gearbox.iterate_ns_per_nnz"] = float64(t.stepWall.Nanoseconds()) / float64(t.activated)
	}
	rep.metrics["gearbox.allocs_per_iter"] = float64(t.mallocs) / float64(max(t.iterations, 1))
	rep.metrics["gearbox.alloc_kb_per_run"] = float64(t.allocBytes) / 1024 / n
	rep.metrics["par.busy_frac"] = 0
	if t.capacity > 0 {
		rep.metrics["par.busy_frac"] = float64(t.busy) / float64(t.capacity)
	}
	rep.metrics["par.steals"] = float64(t.steals) / n
	rep.metrics["par.merge_ms"] = ms(t.merge) / n
	rep.metrics["par.overlap_ms"] = ms(t.overlap) / n
	rep.metrics["pipeline.inflight_hw"] = float64(t.inflight)
	simMetrics(rep, t.sims)

	wall := log.rootWall()
	rep.metrics["trace.self_sum_frac"] = 0
	if wall > 0 {
		rep.metrics["trace.self_sum_frac"] = float64(sum)/float64(wall) - 1
	}
	if f := rep.metrics["trace.self_sum_frac"]; f > 0.05 || f < -0.05 {
		rep.problem("layer self times sum to %.1f%% of request wall", 100*(1+f))
	}
}

// simMetrics sets the modelled per-layer metrics: means per request of the
// traced requests' simulated statistics.
func simMetrics(rep *report, sims []simStats) {
	n := float64(max(len(sims), 1))
	var steps [6]float64
	var iters, act, ring, tsv float64
	var remote, energy float64
	var hw int64
	for _, s := range sims {
		for k := range steps {
			steps[k] += s.StepNs[k]
		}
		iters += float64(s.Iterations)
		act += float64(s.ActivatedNNZ)
		remote += s.RemoteFrac
		energy += s.EnergyJ
		ring += float64(s.RingWords)
		tsv += float64(s.TSVWords)
		hw = max(hw, s.DispatchHW)
	}
	for k := range steps {
		rep.metrics[fmt.Sprintf("sim.step%d_us", k+1)] = steps[k] / 1e3 / n
	}
	rep.metrics["sim.iterations"] = iters / n
	rep.metrics["sim.activated_nnz"] = act / n
	rep.metrics["sim.remote_frac"] = remote / n
	rep.metrics["sim.energy_uj"] = energy * 1e6 / n
	rep.metrics["interconnect.ring_words"] = ring / n
	rep.metrics["interconnect.tsv_words"] = tsv / n
	rep.metrics["gearbox.dispatcher_hw"] = float64(hw)
}

// zeroServe reports the serve layer, which the direct workloads bypass.
func zeroServe(rep *report) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") {
			rep.metrics[d.name] = 0
		}
	}
}
