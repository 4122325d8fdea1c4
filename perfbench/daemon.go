package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sunflow/internal/coflow"
	"sunflow/internal/daemon"
)

// Shape of the daemon workload, a replay of the paper trace.
const (
	copies       = 4   // times the trace is replayed, each after the previous one drained
	drainAt      = 1e7 // simulated seconds between copies: an advance this far drains every coflow
	requestLimit = 30 * time.Second
	refEvery     = 1000 // requests between reference-kernel ticks
)

// daemonProc is one running sunflowd process.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error // receives cmd.Wait's result once stdout is drained
}

// spawn starts sunflowd on dataDir with an ephemeral port and returns once
// /readyz answers 200, with the time that took.
func spawn(bin, dataDir string, client *http.Client) (*daemonProc, float64, error) {
	start := time.Now()
	cmd := exec.Command(bin,
		"-data", dataDir,
		"-http", "127.0.0.1:0",
		"-ports", strconv.Itoa(ports),
		"-gbps", fmt.Sprint(linkBps/1e9),
		"-delta-ms", fmt.Sprint(deltaSec*1e3))
	cmd.Stderr = os.Stderr
	// Should the benchmark itself die, the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &daemonProc{cmd: cmd, done: make(chan error, 1)}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "[sunflowd listening on "); ok {
			p.addr = strings.TrimSuffix(rest, "]")
			break
		}
	}
	go func() {
		// Wait may only run once the pipe is drained; the copy ends when the
		// process exits and closes its stdout.
		_, _ = io.Copy(io.Discard, stdout)
		p.done <- cmd.Wait()
	}()
	if p.addr == "" {
		p.kill()
		return nil, 0, fmt.Errorf("%s exited before printing its listen address", bin)
	}
	for deadline := start.Add(requestLimit); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := client.Get(p.url("/readyz"))
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return p, time.Since(start).Seconds(), nil
		}
	}
	p.kill()
	return nil, 0, fmt.Errorf("sunflowd not ready after %s", requestLimit)
}

func (p *daemonProc) url(path string) string { return "http://" + p.addr + path }

// kill sends SIGKILL — a crash, no drain, no final checkpoint — and waits.
func (p *daemonProc) kill() {
	_ = p.cmd.Process.Kill() // fails only if the process already exited
	<-p.done
}

// terminate sends SIGTERM and waits for the graceful drain to exit 0.
func (p *daemonProc) terminate() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.done:
		return err
	case <-time.After(requestLimit):
		p.kill()
		return fmt.Errorf("sunflowd did not drain within %s", requestLimit)
	}
}

// peakRSSMB reads the process's VmHWM.
func (p *daemonProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// client speaks the /v1 API over one keep-alive connection.
type client struct {
	http *http.Client
	p    *daemonProc
}

// post submits one pre-encoded event and decodes the Ack; a non-200 status
// is an error.
func (c *client) post(body []byte) (daemon.Ack, error) {
	resp, err := c.http.Post(c.p.url("/v1/events"), "application/json", bytes.NewReader(body))
	if err != nil {
		return daemon.Ack{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return daemon.Ack{}, fmt.Errorf("POST /v1/events: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var ack daemon.Ack
	return ack, json.NewDecoder(resp.Body).Decode(&ack)
}

// get decodes a GET reply into v.
func (c *client) get(path string, v any) error {
	resp, err := c.http.Get(c.p.url(path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// promCounter reads one sample from the /metrics exposition.
func (c *client) promCounter(name string) (float64, error) {
	resp, err := c.http.Get(c.p.url("/metrics"))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// runDaemon is the daemon workload: spawn sunflowd and replay the paper
// trace as register+advance events, closed loop over one connection, copies
// times — each copy shifted in ids and time past an advance that drained
// the previous one — then kill -9 it and restart on the same data
// directory. One request in flight keeps the events in trace order, so the
// CCTs are deterministic. The final state digest and every CCT must equal a
// fresh in-process Engine fed the acknowledged events in the daemon's
// sequence order, and the restarted daemon must recover the same digest.
func runDaemon(cfg config) *report {
	rep := newReport()
	text, err := buildTrace(paperGenerator(paperCoflows), cfg.seed)
	var cs []*coflow.Coflow
	if err == nil {
		cs, err = readCoflows(text)
	}
	if err != nil {
		rep.check(false, "trace: %v", err)
		return rep
	}
	if cfg.traced {
		simLayers(rep, text, simSpecs["paper"], demands(cs), cfg)
		daemonLayers(rep, registerAdvance(cs[:layerK], 0, 0), cfg)
		return rep
	}
	if cfg.sunflowd == "" {
		rep.check(false, "--sunflowd is required for the daemon workload")
		return rep
	}

	var events []daemon.Event
	for k := 0; k < copies; k++ {
		events = append(events, registerAdvance(cs, k*len(cs), float64(k)*drainAt)...)
		events = append(events, daemon.Event{Kind: daemon.KindAdvance, At: float64(k+1) * drainAt})
	}
	bodies := make([][]byte, len(events))
	for i, ev := range events {
		bodies[i], _ = json.Marshal(ev) // plain structs always marshal
	}

	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: requestLimit}

	// Set-up: spawn until ready, setupReps times; the last one serves.
	var (
		p      *daemonProc
		setups []float64
	)
	dataDir := filepath.Join(cfg.workdir, "data")
	for i := 0; i < setupReps; i++ {
		dir := dataDir
		if i < setupReps-1 {
			dir = filepath.Join(cfg.workdir, fmt.Sprintf("setup-%d", i))
		}
		proc, secs, err := spawn(cfg.sunflowd, dir, hc)
		if err != nil {
			rep.check(false, "spawn: %v", err)
			return rep
		}
		setups = append(setups, secs)
		if i < setupReps-1 {
			proc.kill()
		} else {
			p = proc
		}
	}
	c := &client{http: hc, p: p}
	var (
		acks []uint64 // sequence number of each acknowledged event, in send order
		sent []daemon.Event
		rtt  = make([]float64, 0, len(events))
		wall float64 // seconds spent in requests
		ref  = newRefClock()
	)
	// The reference kernel runs every refEvery requests and after the last,
	// while no request is in flight.
	start := time.Now()
	for i, body := range bodies {
		if i%refEvery == 0 {
			wall += time.Since(start).Seconds()
			ref.tick()
			start = time.Now()
		}
		rep.attempted++
		t0 := time.Now()
		ack, err := c.post(body)
		rtt = append(rtt, time.Since(t0).Seconds())
		if err != nil {
			rep.failed++
			fmt.Printf("request %d failed: %v\n", i, err)
			continue
		}
		acks = append(acks, ack.Seq)
		sent = append(sent, events[i])
	}
	wall += time.Since(start).Seconds()
	ref.tick()

	// Read the final state back: status, metrics, every completion.
	var st daemon.Status
	if err := c.get("/v1/status", &st); err != nil {
		p.kill()
		rep.check(false, "%v", err)
		return rep
	}
	accepted, err := c.promCounter("daemon_events_accepted")
	rep.check(err == nil && int(accepted) == len(acks), "/metrics daemon_events_accepted %v (%v), acknowledged %d", accepted, err, len(acks))
	got := map[int]daemon.Completion{}
	for _, ev := range sent {
		if ev.Kind != daemon.KindRegister {
			continue
		}
		var view struct {
			Completion *daemon.Completion `json:"completion"`
		}
		if err := c.get(fmt.Sprintf("/v1/coflows/%d", ev.Coflow), &view); err != nil || view.Completion == nil {
			rep.check(false, "coflow %d: no completion (%v)", ev.Coflow, err)
			continue
		}
		got[ev.Coflow] = *view.Completion
	}
	rss, err := p.peakRSSMB()
	rep.check(err == nil, "sunflowd peak RSS: %v", err)

	// Crash and recover on the same data directory.
	p.kill()
	p, recoverSecs, err := spawn(cfg.sunflowd, dataDir, hc)
	if err != nil {
		rep.check(false, "restart: %v", err)
		return rep
	}
	c.p = p
	var rec daemon.Status
	rep.check(c.get("/v1/status", &rec) == nil && rec.Digest == st.Digest, "recovered digest %s != pre-crash %s", rec.Digest, st.Digest)
	if err := p.terminate(); err != nil {
		rep.check(false, "drain after restart: %v", err)
	}

	// Reference: a fresh Engine fed the acknowledged events in sequence order.
	eng, err := daemon.NewEngine(engineConfig(), nil)
	if err != nil {
		rep.check(false, "reference engine: %v", err)
		return rep
	}
	for i, ev := range sent {
		rep.check(i == 0 || acks[i] > acks[i-1], "acknowledged sequence numbers out of send order at request %d", i)
		ev.Seq = acks[i]
		if _, err := eng.Apply(ev); err != nil {
			rep.check(false, "reference apply seq %d: %v", acks[i], err)
			return rep
		}
	}
	rep.check(st.Digest == eng.Digest(), "final digest %s != in-process reference %s", st.Digest, eng.Digest())
	want := eng.Completions()
	rep.check(len(want) == copies*len(cs) && len(got) == len(want), "daemon reports %d completions, reference %d, trace %d coflows × %d", len(got), len(want), len(cs), copies)
	lower := demands(cs)
	ccts := make([]float64, 0, len(cs))
	for id, w := range want {
		g, ok := got[id]
		rep.check(ok && g.CCT == w.CCT && g.Finish == w.Finish, "coflow %d: CCT %v finish %v != reference CCT %v finish %v", id, g.CCT, g.Finish, w.CCT, w.Finish)
		lb := lower[id%len(cs)].lower
		rep.check(w.CCT >= lb*(1-1e-9), "coflow %d CCT %v below its TpL lower bound %v", id, w.CCT, lb)
		if id < len(cs) {
			ccts = append(ccts, g.CCT) // the first copy's, from trace time zero
		}
	}

	rt, cct := newDist(rtt), newDist(ccts)
	fmt.Printf("%d requests in %.3f s (%.1f events/s, %.2f coflows/s); recovery %.3f s\n", len(events), wall, float64(len(events))/wall, float64(copies*len(cs))/wall, recoverSecs)
	fmt.Println(ref)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Println(rt.describe("req (round trip)", q, 1e3, "ms"))
	}
	fmt.Println(cct.describe("cct", 0.99, 1, "s"))

	rep.set("setup_s", median(setups), "s")
	rep.set("norm_coflows_per_s", float64(copies*len(cs))/wall*ref.scale(), "1/s")
	rep.set("peak_rss_mb", rss, "MB")
	rep.set("cct_mean_s", cct.mean(), "s")
	rep.set("cct_p99_s", cct.quantile(0.99), "s")
	return rep
}
