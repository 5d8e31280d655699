package main

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"

	"odr/internal/obs/scrape"
)

// serverChild is the system under test as the parent sees it: a process it
// can feed traffic, scrape over HTTP, and account through /proc.
type serverChild struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stdout  *bufio.Reader
	ready   serveReady
	started time.Time // just before exec
	http    *http.Client
}

// startChild re-executes this binary in -serve mode and waits for its ready
// line.
func startChild(cfg serveConfig) (*serverChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	c := &serverChild{http: &http.Client{Timeout: 5 * time.Second}}
	c.cmd = exec.Command(exe, "-serve", string(cfgJSON))
	c.cmd.Stderr = os.Stderr
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.stdout = bufio.NewReader(out)
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	line, err := c.stdout.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &c.ready)
	}
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("server child did not become ready: %w", err)
	}
	return c, nil
}

// stop ends the child in an orderly way and returns what it dumped.
func (c *serverChild) stop() (*serveDump, error) {
	c.stdin.Close()
	var dump serveDump
	decErr := gob.NewDecoder(c.stdout).Decode(&dump)
	waitErr := c.cmd.Wait()
	c.http.CloseIdleConnections()
	if decErr != nil {
		return nil, fmt.Errorf("server child dump: %w", decErr)
	}
	if waitErr != nil {
		return nil, fmt.Errorf("server child: %w", waitErr)
	}
	return &dump, nil
}

// kill is the error-path stop: no dump is wanted.
func (c *serverChild) kill() {
	c.stdin.Close()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // the kill is the reason it fails
	c.http.CloseIdleConnections()
}

func (c *serverChild) get(path string) (io.ReadCloser, error) {
	resp, err := c.http.Get("http://" + c.ready.Debug + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return resp.Body, nil
}

// sample is one reading of everything the window counters are built from.
type sample struct {
	at     time.Time
	sc     *scrape.Scrape
	snap   serveSnapshot
	proc   procSample
	genCPU float64 // the generator's own user+sys seconds
}

// scrapeMetrics reads the child's /metrics.
func (c *serverChild) scrapeMetrics() (*scrape.Scrape, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return scrape.Parse(body)
}

// takeSample reads /metrics, /debug/odr and /proc back to back.
func (c *serverChild) takeSample() (*sample, error) {
	sc, err := c.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	return c.completeSample(sc)
}

// completeSample adds the /debug/odr and /proc readings to a scrape.
func (c *serverChild) completeSample(sc *scrape.Scrape) (*sample, error) {
	s := &sample{sc: sc}
	body, err := c.get("/debug/odr")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(body).Decode(&s.snap)
	body.Close()
	if err != nil {
		return nil, fmt.Errorf("/debug/odr: %w", err)
	}
	if s.proc, err = readProc(c.ready.PID); err != nil {
		return nil, err
	}
	s.genCPU = selfCPUSeconds()
	s.at = time.Now()
	return s, nil
}

// selfCPUSeconds is the generator's own CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Names of the hub's energy series (stream.NameSessionEnergy and its labels).
const (
	energySeries     = "odr_session_energy_joules"
	sharedSession    = "shared"
	energyFlushEvery = 500 * time.Millisecond // stream.sessionFlushInterval
)

// sharedEnergy is the shared probe's energy total, the series that carries
// the renderer's and the lane encoders' joules.
func sharedEnergy(sc *scrape.Scrape) float64 {
	var j float64
	for _, sm := range sc.Series(energySeries) {
		if sm.Label("session") == sharedSession {
			j += sm.Value
		}
	}
	return j
}

// scrapeAtEnergyFlush polls /metrics until the shared probe's energy gauges
// move past prev (or, with prev < 0, past the first reading) and returns that
// scrape. The hub publishes energy only every half second, so a scrape at an
// arbitrary instant reads joules up to half a second stale against frame
// counters that are current; one taken right after a flush reads both at the
// same instant.
func (c *serverChild) scrapeAtEnergyFlush(prev float64) (*scrape.Scrape, error) {
	deadline := time.Now().Add(4 * energyFlushEvery)
	for {
		sc, err := c.scrapeMetrics()
		if err != nil {
			return nil, err
		}
		j := sharedEnergy(sc)
		if prev < 0 {
			prev = j
		} else if j != prev {
			return sc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shared energy series did not move in %v", 4*energyFlushEvery)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
