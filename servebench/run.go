package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// launches is how many times a run sets the server up; setup_s is the
// median over them, and the last one serves the measured phase.
const launches = 5

// driveRun is one drive of a workload against a fresh server: set-up, the
// measured phase, and what the server reported about it.
type driveRun struct {
	setup       []time.Duration // per launch: launch to healthy, plus the warm-up pass
	samples     []sample        // the measured phase, in request order
	measured    *outcome        // checks of the measured responses
	total       *outcome        // every response the final server sent
	throwaway   *outcome        // warm-up responses of the earlier launches
	delta       counters        // /metrics movement over the measured phase
	cpu         time.Duration   // server CPU over the measured phase
	rssMB       float64         // server VmHWM at the end of the run
	serverProcs int             // the server's GOMAXPROCS
	wall        time.Duration   // first send (or due time) to last response
	invalid     []string        // counter disagreements
}

// driveWorkload launches the server `launches` times, warms it when the
// workload has a set-up pass, and drives the measured phase against the
// last launch.
func (b *bench) driveWorkload(ctx context.Context, traced bool) (*driveRun, error) {
	set := b.set
	run := &driveRun{total: &outcome{}, throwaway: &outcome{}}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for l := 0; l < launches; l++ {
		s, up, err := startServer(ctx, b.serverBin, filepath.Join(b.outDir, fmt.Sprintf("dpserved-%s-s%d.log", set.Workload, set.Seed)))
		if err != nil {
			return nil, err
		}
		srv = s
		warm := &outcome{}
		if len(set.Warm) > 0 {
			start := time.Now()
			d := newDriver(s.base, set.Conns, false)
			ws := d.closedLoop(ctx, set.Warm, set.Conns)
			d.close()
			up += time.Since(start)
			warm = evaluate(set.Warm, ws, b.answers)
		}
		run.setup = append(run.setup, up)
		if l < launches-1 {
			c, err := s.scrape()
			if err != nil {
				return nil, err
			}
			run.reconcile(c, warm)
			run.throwaway.add(warm)
			s.stop()
			srv = nil
			continue
		}
		run.total.add(warm)
	}

	// Collect the client's own garbage (oracle answers, warm-up bodies)
	// now, so its collector does not compete with the server for the
	// cores during the measured phase.
	runtime.GC()
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	d := newDriver(srv.base, set.Conns, traced)
	if set.Closed {
		run.samples = d.closedLoop(ctx, set.Reqs, set.Conns)
	} else {
		run.samples = d.openLoop(ctx, set.Reqs, set.Conns, set.Rate)
	}
	d.close()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	if run.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	run.serverProcs = srv.gomaxprocs()
	srv.stop()
	srv = nil

	run.cpu = cpu1 - cpu0
	run.delta = after.sub(before)
	run.measured = evaluate(set.Reqs, run.samples, b.answers)
	run.total.add(run.measured)
	run.reconcile(after, run.total)
	var first, last int64 = -1, 0
	for i := range run.samples {
		s := &run.samples[i]
		if first < 0 || s.due < first {
			first = s.due
		}
		last = max(last, s.end)
	}
	run.wall = time.Duration(last - first)
	return run, nil
}

// reconcile records any disagreement between a server's counters and the
// client's tallies for the same server lifetime.
func (r *driveRun) reconcile(c counters, client *outcome) {
	if err := c.reconcile(); err != nil {
		r.invalid = append(r.invalid, err.Error())
	}
	if err := client.agrees(c); err != nil {
		r.invalid = append(r.invalid, err.Error())
	}
}
