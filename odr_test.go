package odr

import (
	"net"
	"os"
	"testing"
	"time"
)

func TestSimulateDefaults(t *testing.T) {
	r, err := Simulate(SimConfig{Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Label != "ODRMax" {
		t.Fatalf("default label = %q, want ODRMax", r.Label)
	}
	if r.ClientFPS < 30 || r.FramesRendered == 0 {
		t.Fatalf("implausible result: %+v", r)
	}
}

func TestSimulateODRBeatsNoReg(t *testing.T) {
	base := SimConfig{Benchmark: "IM", Duration: 15 * time.Second, Seed: 2}
	nrCfg := base
	nrCfg.Policy = PolicyNoReg
	nr, err := Simulate(nrCfg)
	if err != nil {
		t.Fatal(err)
	}
	odrCfg := base
	odrCfg.Policy = PolicyODR
	odr, err := Simulate(odrCfg)
	if err != nil {
		t.Fatal(err)
	}
	if odr.FPSGapMean >= nr.FPSGapMean/5 {
		t.Fatalf("ODR gap %.1f not well below NoReg %.1f", odr.FPSGapMean, nr.FPSGapMean)
	}
	if odr.PowerWatts >= nr.PowerWatts {
		t.Fatalf("ODR power %.1f >= NoReg %.1f", odr.PowerWatts, nr.PowerWatts)
	}
}

func TestSimulateValidation(t *testing.T) {
	cases := []SimConfig{
		{Benchmark: "nope"},
		{Platform: "aws"},
		{Resolution: "4k"},
		{Policy: "magic"},
	}
	for _, c := range cases {
		if _, err := Simulate(c); err == nil {
			t.Errorf("config %+v: expected error", c)
		}
	}
}

func TestSimulateAllBenchmarksAndPlatforms(t *testing.T) {
	for _, b := range []string{"STK", "0AD", "RE", "D2", "IM", "ITP"} {
		for _, p := range []string{"priv", "gce"} {
			r, err := Simulate(SimConfig{
				Benchmark: b, Platform: p, Policy: PolicyODR, TargetFPS: 60,
				Duration: 5 * time.Second,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", b, p, err)
			}
			if r.ClientFPS < 40 {
				t.Errorf("%s/%s: ODR60 client FPS %.1f", b, p, r.ClientFPS)
			}
		}
	}
}

func TestCoreReexportsUsable(t *testing.T) {
	dom := NewRealtimeDomain()
	mb := NewMultiBuffer(dom)
	pacer := NewPacer(60)
	box := NewInputBox(dom)
	if mb == nil || pacer == nil || box == nil {
		t.Fatal("constructors returned nil")
	}
	if pacer.Interval() != time.Second/60 {
		t.Fatalf("pacer interval = %v", pacer.Interval())
	}
	w := NewRealtimeWaiter(dom)
	if got := box.DelayInterruptible(w, time.Millisecond); got {
		t.Fatal("no input was pending")
	}
}

func TestStreamFacade(t *testing.T) {
	sc, cc := net.Pipe()
	hub := NewHub(HubConfig{Width: 32, Height: 18, Policy: StreamODR, TargetFPS: 60})
	go hub.Run()
	detached := make(chan SessionStats, 1)
	hub.Attach(sc, 0, func(st SessionStats) { detached <- st })
	cli := NewStreamClient(cc)
	cliDone := make(chan error, 1)
	go func() { cliDone <- cli.Run() }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && cli.Report().Frames < 10 {
		time.Sleep(5 * time.Millisecond)
	}
	rep := cli.Report()
	cli.Stop()
	select {
	case st := <-detached:
		if st.Sent < 10 {
			t.Fatalf("hub sent %d frames", st.Sent)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session never detached after the client stopped")
	}
	hub.Stop()
	if err := <-cliDone; err != nil {
		t.Fatalf("client: %v", err)
	}
	if rep.Frames < 10 {
		t.Fatalf("frames = %d", rep.Frames)
	}
}

func TestSimulateTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.csv"
	csv := "render_ms,copy_ms,encode_ms,decode_ms,bytes\n"
	for i := 0; i < 200; i++ {
		csv += "5.0,1.0,10.0,3.0,36000\n"
	}
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(SimConfig{
		Benchmark: "IM", Policy: PolicyODR, TargetFPS: 0,
		Duration: 10 * time.Second, TraceCSVPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Encode-bound constant trace: ~1000/11ms with contention ≈ 85-92 FPS.
	if r.ClientFPS < 80 || r.ClientFPS > 95 {
		t.Fatalf("trace-driven FPS = %.1f, want ~88", r.ClientFPS)
	}
	if _, err := Simulate(SimConfig{TraceCSVPath: dir + "/missing.csv", Duration: time.Second}); err == nil {
		t.Fatal("missing trace accepted")
	}
}
