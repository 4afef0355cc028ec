package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gearbox"
	"gearbox/internal/apps"
	core "gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/obs"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/serve"
	"gearbox/internal/sparse"
)

// The serve-mix traffic: two closed-loop clients, one tenant each, over
// three small-tier pool keys. Per key, every block of the request list
// holds this multiset of apps, leaning to the short ones, and each block
// adds one PageRank, on the keys in turn; the seed shuffles the order and
// picks the sources and query seeds. The shares keep the median inside the
// bfs band and p95 inside the sssp/cc band rather than on the edge between
// two bands, where a few requests more or less would move it far.
var (
	mixKeys = []string{"holly", "patent", "twitter"}
	mixApps = []struct {
		app   string
		count int
	}{{"svm", 4}, {"spknn", 4}, {"bfs", 6}, {"sssp", 3}, {"cc", 3}}
)

const (
	mixClients     = 2
	mixSources     = 3 // distinct bfs/sssp sources per key
	telemetryEvery = 5 // every fifth request asks for a telemetry snapshot
	scrapeEvery    = 8 // client 0 scrapes /metrics after every eighth request
)

// mixShapes are the RMAT shapes of the holly, patent and twitter stand-ins
// in internal/gen's presets, at the medium tier; the small tier is two
// scales down.
var mixShapes = map[string]gen.RMATConfig{
	"holly":   {Scale: 14, EdgeFactor: 48, A: 0.57, B: 0.19, C: 0.19, Noise: 0.10},
	"patent":  {Scale: 16, EdgeFactor: 9, A: 0.45, B: 0.22, C: 0.22, Noise: 0.15},
	"twitter": {Scale: 15, EdgeFactor: 56, A: 0.65, B: 0.15, C: 0.15, Noise: 0.10},
}

// mixReq is one request of the list.
type mixReq struct {
	key       string
	q         appReq
	telemetry bool
}

// group names the (key, app) pair, the unit latencies compare within.
func (r mixReq) group() string { return r.key + "/" + r.q.app }
func (r mixReq) id() string    { return r.key + "/" + r.q.String() }

// expected is what a served result must repeat: the detail line and the
// headline statistics of a direct gearbox.System.Run.
type expected struct {
	detail     string
	timeNs     float64
	iterations int
}

// mixBuilder is the server's Build function: it generates each key's
// matrix from the seed and times the layers it calls.
type mixBuilder struct {
	seed int64
	tiny bool

	mu       sync.Mutex
	matrices map[string]*sparse.CSC
	genS     float64 // summed over the builds since the last take
	systemS  float64
	longCols int
}

func (b *mixBuilder) shape(dataset string) (gen.RMATConfig, error) {
	c, ok := mixShapes[dataset]
	if !ok {
		return c, fmt.Errorf("serve-mix: no shape for dataset %q", dataset)
	}
	c.Scale -= 2
	if b.tiny {
		c.Scale, c.EdgeFactor = c.Scale-3, c.EdgeFactor/2
	}
	c.Seed = subSeed(b.seed, "serve-mix/"+dataset)
	c.Workers = 1
	return c, nil
}

func (b *mixBuilder) build(k serve.Key) (*gearbox.System, error) {
	c, err := b.shape(k.Dataset)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m, err := gen.RMAT(c)
	if err != nil {
		return nil, err
	}
	m = symmetrize(m)
	t1 := time.Now()
	sys, err := gearbox.NewSystem(m, gearbox.Options{Version: gearbox.V3, Workers: 1})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.matrices[k.Dataset] = m
	b.genS += t1.Sub(t0).Seconds()
	b.systemS += t2.Sub(t1).Seconds()
	b.longCols += sys.LongCount()
	return sys, nil
}

// symmetrize returns m + mᵀ. The mix includes connected components, whose
// answer the simulator and RefConnectedComponents agree on only for an
// undirected graph, so every pool key serves a symmetric matrix.
func symmetrize(m *sparse.CSC) *sparse.CSC {
	coo := m.ToCOO()
	for _, e := range coo.Entries {
		coo.Add(e.Col, e.Row, e.Val)
	}
	return sparse.CSCFromCOOWorkers(coo, 1)
}

// matrix returns the last matrix built for a dataset.
func (b *mixBuilder) matrix(dataset string) *sparse.CSC {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.matrices[dataset]
}

// take returns and clears the layer times of the builds so far.
func (b *mixBuilder) take() (genS, systemS float64, longCols int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	genS, systemS, longCols = b.genS, b.systemS, b.longCols
	b.genS, b.systemS, b.longCols = 0, 0, 0
	return
}

// liveServer is an internal/serve Server behind its HTTP handler on a
// loopback listener.
type liveServer struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	served chan error
}

func startServer(cfg serve.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{srv: serve.New(cfg), base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains the server and waits for both to end.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// exchange is one request as the client saw it.
type exchange struct {
	send, queued, result, done time.Time
	bytes                      int
	res                        *serve.Result
	err                        error
	// exec is the server's own execute wall for the run (traced requests
	// only), from the Server.Stats recent-run ring.
	exec time.Duration
}

// post submits a run and reads its NDJSON lifecycle, stamping each event's
// arrival.
func post(c *http.Client, base string, req serve.Request) exchange {
	var x exchange
	body, err := json.Marshal(req)
	if err != nil {
		x.err = err
		return x
	}
	x.send = time.Now()
	resp, err := c.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		x.err = err
		return x
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		x.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		return x
	}
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		now := time.Now()
		x.bytes += len(line)
		if len(line) > 0 {
			var ev serve.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				x.err = fmt.Errorf("event: %w", err)
				return x
			}
			switch ev.Event {
			case "queued":
				x.queued = now
			case "started":
			case "result":
				x.result, x.res = now, ev.Result
			default:
				x.err = fmt.Errorf("event %q: %s", ev.Event, ev.Error)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			x.err = err
			return x
		}
	}
	x.done = time.Now()
	if x.err == nil && x.res == nil {
		x.err = errors.New("stream ended without a result")
	}
	return x
}

// execWall looks up the server-side execute wall of a run in the
// Server.Stats recent-run ring. The server records a run just after sending
// its result, so the lookup waits briefly for the record to appear.
func execWall(srv *serve.Server, runID string) (time.Duration, error) {
	for try := 0; try < 1000; try++ {
		for _, r := range srv.Stats().Recent {
			if r.RunID == runID {
				return time.Duration(r.WallMs * 1e6), nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return 0, fmt.Errorf("run %s never appeared in the server's recent runs", runID)
}

// scrape fetches /metrics and returns its samples by series name.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func (r mixReq) request(tenant string, size string) serve.Request {
	return serve.Request{
		Tenant: tenant, Key: serve.Key{Dataset: r.key, Size: size, Version: "v3"},
		App: r.q.app, Source: r.q.source, Seed: r.q.seed, Telemetry: r.telemetry,
	}
}

// mixList draws the request list: blocks of the per-key app multiset,
// shuffled by the seed, with seeded sources and query seeds.
func mixList(seed int64, blocks int, b *mixBuilder) []mixReq {
	rng := rand.New(rand.NewSource(subSeed(seed, "serve-mix/list")))
	sources := map[string][]int32{}
	qseeds := map[string]int64{}
	for _, k := range mixKeys {
		sources[k] = giantSources(b.matrix(k), rng, mixSources)
		qseeds[k] = 1 + rng.Int63n(1<<30)
	}
	var list []mixReq
	for b := 0; b < blocks; b++ {
		for _, k := range mixKeys {
			for _, a := range mixApps {
				for i := 0; i < a.count; i++ {
					q := appReq{app: a.app}
					switch a.app {
					case "bfs", "sssp":
						q.source = sources[k][rng.Intn(mixSources)]
					case "spknn", "svm":
						q.seed = qseeds[k]
					}
					list = append(list, mixReq{key: k, q: q})
				}
			}
		}
		list = append(list, mixReq{key: mixKeys[b%len(mixKeys)], q: appReq{app: "pr"}})
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	for i := range list {
		list[i].telemetry = i%telemetryEvery == telemetryEvery-1
	}
	return list
}

// directKey is the benchmark's own copy of one pool key: a System for
// gearbox.System.Run and an apps-level machine the probe can hook.
type directKey struct {
	m     *sparse.CSC
	sys   *gearbox.System
	cfg   apps.RunConfig
	probe *probe
}

func runServeMix(o options) (*report, error) {
	rep := newReport()
	runStart := time.Now()
	size := "small"
	if o.tiny {
		size = "tiny"
	}
	builder := &mixBuilder{seed: o.seed, tiny: o.tiny, matrices: map[string]*sparse.CSC{}}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients + 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	newConfig := func() serve.Config {
		return serve.Config{Workers: 2, SimWorkers: 1, Build: builder.build, Registry: obs.NewRegistry()}
	}

	// Setup: a fresh server until every pool key has served a first run.
	var setups, genS, systemS []float64
	var live *liveServer
	var longCols int
	for i := 0; i < setupReps; i++ {
		if live != nil {
			if err := live.stop(); err != nil {
				return nil, err
			}
			live = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if live, err = startServer(newConfig()); err != nil {
			return nil, err
		}
		for _, k := range mixKeys {
			x := post(client, live.base, mixReq{key: k, q: appReq{app: "bfs"}}.request("warm", size))
			if x.err != nil {
				live.stop()
				return nil, fmt.Errorf("warming %s: %w", k, x.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		g, s, lc := builder.take()
		genS, systemS, longCols = append(genS, g), append(systemS, s), lc
	}
	defer func() {
		if live != nil {
			live.stop()
		}
	}()

	phases := map[string]float64{"setup": time.Since(runStart).Seconds()}
	rep.record["phase_s"] = phases
	blocks := max(1, 2*o.seconds/5)
	list := mixList(o.seed, blocks, builder)
	rep.record["requests"] = len(list)

	// Expected results, outside timing: per distinct request, a direct
	// System.Run gives the detail line and headline statistics, and the same
	// request on an apps-level machine is checked against the CPU
	// reference and must model the same run.
	pcfg, mcfg := v3Config(1)
	direct := map[string]*directKey{}
	var newMs float64
	for _, k := range mixKeys {
		m := builder.matrix(k)
		sys, err := gearbox.NewSystem(m, gearbox.Options{Version: gearbox.V3, Workers: 1})
		if err != nil {
			return nil, err
		}
		plan, err := partition.Build(m, mcfg.Geo, pcfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		mach, err := core.New(plan, semiring.PlusTimes{}, mcfg)
		if err != nil {
			return nil, err
		}
		newMs += ms(time.Since(t0))
		direct[k] = &directKey{m: m, sys: sys, probe: newProbe(nil), cfg: apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan, Reuse: mach}}
	}
	want := map[string]expected{}
	fence := simFence{}
	for _, r := range list {
		if _, ok := want[r.id()]; ok {
			continue
		}
		d := direct[r.key]
		run, err := d.sys.Run(r.q.runRequest())
		if err != nil {
			return nil, fmt.Errorf("direct %s: %w", r.id(), err)
		}
		want[r.id()] = expected{detail: run.Detail, timeNs: run.Stats.TimeNs(), iterations: run.Work.Iterations}
		p := d.probe
		p.log = &spanLog{}
		cfg := d.cfg
		cfg.OnMachine = p.attach
		p.arm(-1, -1, 0)
		out, err := r.q.run(d.m, cfg)
		if err != nil {
			return nil, fmt.Errorf("direct %s: %w", r.id(), err)
		}
		p.detach()
		if err := r.q.check(out, r.q.reference(d.m)); err != nil {
			rep.problem("%s: %v", r.id(), err)
		}
		sim := simOf(out).withLinks(p)
		if sim.TimeNs != run.Stats.TimeNs() || sim.Iterations != run.Work.Iterations {
			rep.problem("sim fence: %s on the apps path modelled %v ns in %d iterations, System.Run %v ns in %d",
				r.id(), sim.TimeNs, sim.Iterations, run.Stats.TimeNs(), run.Work.Iterations)
		}
		if err := fence.observe(r.id(), sim); err != nil {
			rep.problem("%v", err)
		}
	}

	phases["verify"] = time.Since(runStart).Seconds() - phases["setup"]

	// Warm-up: every (key, app) once through the server. The excess of each
	// first run over its steady median is gearbox.warmup_ms.
	warm := map[string]float64{}
	for _, r := range list {
		if _, ok := warm[r.group()]; ok {
			continue
		}
		x := post(client, live.base, r.request("warm", size))
		if x.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", r.id(), x.err)
		}
		warm[r.group()] = ms(x.done.Sub(x.send))
	}
	before, err := scrape(client, live.base)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	// Timed phase: client c sends requests c, c+2, c+4, ... in a closed
	// loop; with -trace 1 every other pair of requests is traced.
	traced := func(i int) bool { return o.trace && (i/mixClients)%2 == 1 }
	xs := make([]exchange, len(list))
	var scrapes []float64
	var scrapeErr error
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", c)
			n := 0
			for i := c; i < len(list); i += mixClients {
				x := post(client, live.base, list[i].request(tenant, size))
				if traced(i) && x.err == nil {
					x.exec, x.err = execWall(live.srv, x.res.RunID)
				}
				xs[i] = x
				n++
				if c == 0 && n%scrapeEvery == 0 {
					t0 := time.Now()
					if _, err := scrape(client, live.base); err != nil {
						scrapeErr = err
					}
					scrapes = append(scrapes, ms(time.Since(t0)))
				}
			}
		}(c)
	}
	wg.Wait()
	phase := time.Since(start)
	cpu := cpuTime() - cpu0
	phases["timed"] = phase.Seconds()
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	after, err := scrape(client, live.base)
	if err != nil {
		return nil, err
	}

	lat := map[string][]float64{} // untraced walls by (key, app)
	var all []float64
	var simNs, nnz float64
	log := &spanLog{}
	var tt tracedTotals
	var execMs, overheadMs, respKB, ratios []float64
	for i, x := range xs {
		r := list[i]
		rep.attempted++
		if x.err != nil {
			rep.failed++
			rep.problem("request %d (%s): %v", i, r.id(), x.err)
			continue
		}
		w := want[r.id()]
		res := x.res
		bad := res.Detail != w.detail || res.TimeNs != w.timeNs || res.Iterations != w.iterations
		if r.telemetry && (res.Telemetry == nil || res.Telemetry.RunID != res.RunID || res.Telemetry.Iterations != w.iterations) {
			bad = true
		}
		if bad {
			rep.failed++
			rep.problem("request %d (%s): served %q %v ns %d iterations, direct run %q %v ns %d iterations",
				i, r.id(), res.Detail, res.TimeNs, res.Iterations, w.detail, w.timeNs, w.iterations)
			continue
		}
		wall := ms(x.done.Sub(x.send))
		simNs += res.TimeNs
		nnz += float64(res.Work.ProcessedNNZ)
		if !traced(i) {
			lat[r.group()] = append(lat[r.group()], wall)
			all = append(all, wall)
			continue
		}
		lane := 1 + i%mixClients
		root := log.add("serve.request", i, -1, lane, x.send, x.done)
		execStart := x.result.Add(-x.exec)
		if execStart.After(x.queued) {
			log.add("serve.queue", i, root, lane, x.queued, execStart)
		}
		exec := log.add("serve.exec", i, root, lane, execStart, x.result)
		execMs = append(execMs, ms(x.exec))
		overheadMs = append(overheadMs, wall-ms(x.exec))
		respKB = append(respKB, float64(x.bytes)/1024)
		tt.lat = append(tt.lat, wall)
		ratio, err := replay(direct[r.key], r, log, i, exec, lane, &tt, fence)
		if err != nil {
			rep.problem("%v", err)
		}
		ratios = append(ratios, ratio)
	}

	rep.record["setup_s"] = statsOf(setups)
	rep.record["latency_ms"] = statsOf(all)
	rep.record["sim_fingerprint"] = fence.fingerprint()
	st := live.srv.Stats()
	rep.record["server"] = map[string]any{"submitted": st.Submitted, "completed": st.Completed, "shed": st.Shed, "pool": st.Pool}
	if !o.trace {
		p, tail, ok := tailPercentile(all)
		rep.record["latency_tail"] = map[string]any{"percentile": p, "samples": len(all), "beyond_rule_met": ok}
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["latency_p50_ms"] = median(all)
		rep.metrics["latency_tail_ms"] = tail
		rep.metrics["sim_nnz_per_s"] = nnz / phase.Seconds()
		rep.metrics["cpu_ms_per_run"] = ms(cpu) / float64(len(list))
		rep.metrics["peak_rss_mb"] = peakRSSMiB()
		rep.metrics["sim_time_us"] = simNs / 1e3
		rep.metrics["ok_frac"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
		return rep, nil
	}

	rep.metrics["gen.build_s"] = median(genS)
	rep.metrics["mtx.read_csc_s"], rep.metrics["mtx.read_mb_per_s"] = 0, 0
	rep.metrics["partition.build_s"] = median(systemS)
	rep.metrics["partition.long_cols"] = float64(longCols)
	rep.metrics["gearbox.new_ms"] = newMs
	var excess []float64
	for g, w := range warm { //gearbox:nondet-ok the median below ignores order
		excess = append(excess, w-median(lat[g]))
	}
	rep.metrics["gearbox.warmup_ms"] = median(excess)
	tt.report(rep, log)
	rep.metrics["trace.overhead_frac"] = overheadWithin(list, xs, lat, traced)
	rep.metrics["serve.queue_wait_ms"] = 0
	if dn := after["gearbox_serve_queue_wait_seconds_count"] - before["gearbox_serve_queue_wait_seconds_count"]; dn > 0 {
		rep.metrics["serve.queue_wait_ms"] = 1e3 * (after["gearbox_serve_queue_wait_seconds_sum"] - before["gearbox_serve_queue_wait_seconds_sum"]) / dn
	}
	rep.metrics["serve.exec_ms"] = mean(execMs)
	rep.metrics["serve.overhead_ms"] = mean(overheadMs)
	rep.metrics["serve.response_kb"] = mean(respKB)
	rep.metrics["serve.pool_hits"] = after["gearbox_serve_pool_hits_total"]
	rep.metrics["serve.pool_misses"] = after["gearbox_serve_pool_misses_total"]
	rep.metrics["serve.shed"] = after["gearbox_serve_shed_total"]
	rep.metrics["serve.errors"] = after["gearbox_serve_run_errors_total"]
	rep.metrics["serve.metrics_scrape_ms"] = mean(scrapes)
	rep.record["latency_traced_ms"] = statsOf(tt.lat)
	rep.record["replay_over_exec"] = statsOf(ratios)
	phases["replay"] = time.Since(start).Seconds() - phases["timed"]
	path := filepath.Join(o.out, fmt.Sprintf("trace-serve-mix-%d.json", o.seed))
	if err := log.writeChrome(path); err != nil {
		return nil, err
	}
	rep.record["trace_file"] = path
	return rep, nil
}

// replay re-runs a traced served request on the benchmark's own machine for
// its key, with the probe attached, and grafts the spans under the served
// request's serve.exec span. The server exposes no hooks inside a run; the
// sim fence checks the replay modelled the same run. ratio is the replay's
// wall over the served execute wall.
func replay(d *directKey, r mixReq, log *spanLog, req, exec, lane int, tt *tracedTotals, fence simFence) (ratio float64, err error) {
	scratch := &spanLog{}
	p := d.probe
	p.log = scratch
	root := scratch.add("apps.run", req, -1, lane, time.Time{}, time.Time{})
	cfg := d.cfg
	cfg.OnMachine = p.attach
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := p.arm(req, root, lane)
	out, err := r.q.run(d.m, cfg)
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", r.id(), err)
	}
	c := p.detach()
	runtime.ReadMemStats(&ms1)
	scratch.spans[root].start, scratch.spans[root].end = t0, t1
	sim := simOf(out).withLinks(p)
	tt.add(c, sim, ms0, ms1)

	// Map replay time onto the served exec window: shifted to its start, and
	// compressed to fit when the replay ran longer than the served run, so
	// the grafted layers never claim more time than the server spent.
	ex := log.spans[exec]
	scale := min(1, float64(ex.end.Sub(ex.start))/float64(t1.Sub(t0)))
	at := func(t time.Time) time.Time { return ex.start.Add(time.Duration(scale * float64(t.Sub(t0)))) }
	base := len(log.spans)
	for _, s := range scratch.spans {
		parent := exec
		if s.parent >= 0 {
			parent = base + s.parent
		}
		log.add(s.name, req, parent, lane, at(s.start), at(s.end))
	}
	return float64(t1.Sub(t0)) / float64(ex.end.Sub(ex.start)), fence.observe(r.id(), sim)
}

// overheadWithin is trace.overhead_frac for a mixed list: the median over
// traced requests of their wall relative to the untraced median of the same
// (key, app), minus one.
func overheadWithin(list []mixReq, xs []exchange, lat map[string][]float64, traced func(int) bool) float64 {
	var ratios []float64
	for i, x := range xs {
		if !traced(i) || x.err != nil {
			continue
		}
		if base := median(lat[list[i].group()]); base > 0 {
			ratios = append(ratios, ms(x.done.Sub(x.send))/base)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
