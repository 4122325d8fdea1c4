package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"sunflow/internal/coflow"
	"sunflow/internal/daemon"
	"sunflow/internal/obs"
)

// engineConfig is the fabric the daemon runs: the same links and δ as the
// simulator workloads.
func engineConfig() daemon.EngineConfig {
	return daemon.EngineConfig{Ports: ports, LinkBps: linkBps, Delta: deltaSec}
}

// registerAdvance turns coflows into the daemon's event stream: each coflow
// registers at its arrival, then an advance moves the clock halfway to the
// next arrival, so completions are processed between registrations. Ids
// are offset by idOffset and times shifted by shift.
func registerAdvance(cs []*coflow.Coflow, idOffset int, shift float64) []daemon.Event {
	evs := make([]daemon.Event, 0, 2*len(cs))
	for i, c := range cs {
		flows := make([]daemon.FlowSpec, len(c.Flows))
		for k, f := range c.Flows {
			flows[k] = daemon.FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes}
		}
		evs = append(evs, daemon.Event{Kind: daemon.KindRegister, At: c.Arrival + shift, Coflow: c.ID + idOffset, Flows: flows})
		next := c.Arrival + 1
		if i+1 < len(cs) {
			next = (c.Arrival + cs[i+1].Arrival) / 2
		}
		evs = append(evs, daemon.Event{Kind: daemon.KindAdvance, At: next + shift})
	}
	return evs
}

// daemonLayers replays events through each daemon layer in isolation, in
// process and one at a time: Engine.Apply (the state machine), Store.Accept
// (WAL append + apply), a Store reopen (WAL replay, the read side of
// recovery), and Daemon.Submit (admission queue + WAL + apply). The
// differences between the layers' latencies give each layer's cost; the
// daemon's own metric registry (what sunflowd serves on /metrics) supplies
// the WAL, snapshot and queue counters. Every layer must end in the digest
// of the Engine fed the same events.
func daemonLayers(rep *report, events []daemon.Event, cfg config) {
	ecfg := engineConfig()
	rep.attempted += 3 * len(events)

	eng, err := daemon.NewEngine(ecfg, nil)
	if err != nil {
		rep.check(false, "engine: %v", err)
		return
	}
	apply := make([]float64, len(events))
	for i, ev := range events {
		ev.Seq = uint64(i + 1)
		start := time.Now()
		_, err := eng.Apply(ev)
		apply[i] = time.Since(start).Seconds()
		if err != nil {
			rep.check(false, "Engine.Apply event %d: %v", i, err)
			return
		}
	}
	want := eng.Digest()

	storeDir := filepath.Join(cfg.workdir, "store")
	st, err := daemon.Open(storeDir, ecfg, nil, nil)
	if err != nil {
		rep.check(false, "Store.Open: %v", err)
		return
	}
	accept := make([]float64, len(events))
	for i, ev := range events {
		start := time.Now()
		_, _, err := st.Accept(ev)
		accept[i] = time.Since(start).Seconds()
		if err != nil {
			st.Close()
			rep.check(false, "Store.Accept event %d: %v", i, err)
			return
		}
	}
	rep.check(st.Engine().Digest() == want, "Store digest %s != Engine %s", st.Engine().Digest(), want)
	if err := st.Close(); err != nil {
		rep.check(false, "Store.Close: %v", err)
		return
	}
	start := time.Now()
	st, err = daemon.Open(storeDir, ecfg, nil, nil)
	open := time.Since(start).Seconds()
	if err != nil {
		rep.check(false, "Store reopen: %v", err)
		return
	}
	rep.check(st.Engine().Digest() == want, "reopened Store digest %s != Engine %s", st.Engine().Digest(), want)
	rep.check(st.Recovered() == len(events), "reopen replayed %d WAL records, want %d", st.Recovered(), len(events))
	st.Close()

	reg := obs.NewRegistry()
	d, err := daemon.Start(daemon.Config{
		Engine:  ecfg,
		DataDir: filepath.Join(cfg.workdir, "daemon"),
		Metrics: obs.NewDaemonMetrics(reg),
	})
	if err != nil {
		rep.check(false, "daemon.Start: %v", err)
		return
	}
	submit := make([]float64, 0, len(events))
	for i, ev := range events {
		start := time.Now()
		if _, err = d.Submit(context.Background(), ev); err != nil {
			err = fmt.Errorf("event %d: %w", i, err)
			break
		}
		submit = append(submit, time.Since(start).Seconds())
	}
	if serr := d.Shutdown(context.Background()); serr != nil && err == nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err != nil {
		rep.check(false, "Daemon.Submit: %v", err)
		return
	}
	// The apply loop has exited, so reading the Engine cannot race it.
	digest := d.Engine().Digest()
	rep.check(digest == want, "Daemon digest %s != Engine %s", digest, want)

	ms := func(xs []float64, q float64) float64 { return newDist(xs).quantile(q) * 1e3 }
	for _, l := range []struct {
		name string
		xs   []float64
	}{{"daemon.submit", submit}, {"store.accept", accept}, {"engine.apply", apply}} {
		fmt.Println(newDist(l.xs).describe(l.name, 0.99, 1e3, "ms"))
		rep.set(l.name+"_p50_ms", ms(l.xs, 0.5), "ms")
		rep.set(l.name+"_p99_ms", ms(l.xs, 0.99), "ms")
	}
	rep.set("store.open_s", open, "s")
	rep.set("daemon.wal_appends", float64(reg.Counter(obs.NameDaemonWALAppends).Load()), "count")
	rep.set("daemon.wal_bytes", float64(reg.Counter(obs.NameDaemonWALBytes).Load()), "bytes")
	rep.set("daemon.snapshots", float64(reg.Counter(obs.NameDaemonSnapshots).Load()), "count")
	rep.set("daemon.events_shed", float64(reg.Counter(obs.NameDaemonEventsShed).Load()), "count")
	rep.set("daemon.queue_depth_high", float64(reg.Gauge(obs.NameDaemonQueueDepth).High()), "count")
}
