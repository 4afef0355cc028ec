package main

import (
	"time"

	"gearbox/internal/gearbox"
	"gearbox/internal/par"
	"gearbox/internal/telemetry"
)

// probe traces one app run from the hooks the program already exposes:
// apps.RunConfig.OnMachine marks the end of the reset, a telemetry sink's
// BeginIteration marks the start of step 1, Machine.SetTrace marks the end
// of every step, and the worker pool's instrumentation counts parallel
// work. It records spans into the run's spanLog under the parent it is
// given.
type probe struct {
	*telemetry.SpatialStats // forwards every telemetry callback

	log         *spanLog
	req, parent int
	lane        int
	start       time.Time
	last        time.Time // end of the previous step
	mach        *gearbox.Machine
	stepWall    time.Duration
}

// newProbe returns a probe recording into log. Its telemetry arrays are
// reused across runs of one machine shape; arm resets the rest.
func newProbe(log *spanLog) *probe { return &probe{log: log} }

// arm prepares the probe for the run of request req, whose spans hang
// under parent, and returns the time the run starts.
func (p *probe) arm(req, parent, lane int) time.Time {
	p.req, p.parent, p.lane = req, parent, lane
	p.stepWall = 0
	p.start = time.Now()
	return p.start
}

// attach is the apps.RunConfig.OnMachine hook: the machine has been reset
// (or built) and the app is about to distribute its first frontier.
func (p *probe) attach(m *gearbox.Machine) {
	p.log.add("gearbox.reset", p.req, p.parent, p.lane, p.start, time.Now())
	shape := m.TelemetryShape()
	if p.SpatialStats == nil || p.SpatialStats.Shape != shape {
		p.SpatialStats = telemetry.NewSpatialStats(shape)
	}
	p.SpatialStats.Reset()
	p.mach = m
	m.SetTelemetry(p)
	m.SetTrace(p.step)
	m.Pool().SetInstrumented(true)
}

// BeginIteration stamps the start of step 1.
func (p *probe) BeginIteration(iter int, nowNs float64, frontierNNZ int64) {
	p.last = time.Now()
	p.SpatialStats.BeginIteration(iter, nowNs, frontierNNZ)
}

// step is the Machine.SetTrace hook; it fires as each step completes, with
// names "step1-..." to "step6-...".
func (p *probe) step(name string, _ float64) {
	now := time.Now()
	p.log.add("gearbox.step"+name[4:5], p.req, p.parent, p.lane, p.last, now)
	p.stepWall += now.Sub(p.last)
	p.last = now
}

// hostCounters are the host-side counters of one traced run.
type hostCounters struct {
	pool     par.Stats
	poolOK   bool
	inflight int
	stepWall time.Duration
}

// detach ends the run: it reads the pool and pipeline counters and turns the
// pool's instrumentation back off so untraced runs do not pay for it.
func (p *probe) detach() hostCounters {
	var c hostCounters
	c.stepWall = p.stepWall
	if p.mach == nil {
		return c
	}
	c.pool, c.poolOK = p.mach.Pool().Stats()
	c.inflight = p.mach.PipelineStats().InFlightMax
	p.mach.Pool().SetInstrumented(false)
	p.mach = nil
	return c
}

// interconnect sums the telemetry's link counters for the run.
func (p *probe) interconnect() (ring, tsv, dispatchHW int64) {
	s := p.SpatialStats
	for step := range s.RingWords {
		for _, w := range s.RingWords[step] {
			ring += w
		}
		for _, w := range s.TSVWords[step] {
			tsv += w
		}
	}
	for _, h := range s.DispatchHighWater {
		dispatchHW = max(dispatchHW, h)
	}
	return ring, tsv, dispatchHW
}
