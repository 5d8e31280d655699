package memmodel

import (
	"testing"
	"testing/quick"
)

func act(renderFPS, encodeFPS float64) Activity {
	return Activity{
		RenderFPS:     renderFPS,
		CopyFPS:       encodeFPS,
		EncodeFPS:     encodeFPS,
		RawFrameBytes: 1280 * 720 * 4,
	}
}

func TestMonotoneInActivity(t *testing.T) {
	low := New(0)
	high := New(0)
	var sLow, sHigh Snapshot
	for i := 0; i < 50; i++ { // let the EWMA settle
		sLow = low.Update(act(60, 60))
		sHigh = high.Update(act(190, 93))
	}
	if sHigh.MissRate <= sLow.MissRate {
		t.Fatalf("miss rate not monotone: %.3f <= %.3f", sHigh.MissRate, sLow.MissRate)
	}
	if sHigh.ReadTime <= sLow.ReadTime {
		t.Fatalf("read time not monotone: %v <= %v", sHigh.ReadTime, sLow.ReadTime)
	}
	if sHigh.IPC >= sLow.IPC {
		t.Fatalf("IPC not anti-monotone: %.3f >= %.3f", sHigh.IPC, sLow.IPC)
	}
	if sHigh.CPUFactor <= sLow.CPUFactor {
		t.Fatalf("CPU factor not monotone: %.3f <= %.3f", sHigh.CPUFactor, sLow.CPUFactor)
	}
}

func TestCalibrationAnchors(t *testing.T) {
	// The paper's InMind anchors (§4.3): unregulated ~190/93 FPS gives
	// ~75% miss rate and ~68ns reads; regulated 60 FPS drops both.
	m := New(0.62)
	var noreg Snapshot
	for i := 0; i < 60; i++ {
		noreg = m.Update(act(190, 93))
	}
	if noreg.MissRate < 0.65 || noreg.MissRate > 0.85 {
		t.Fatalf("NoReg miss rate = %.2f, want ~0.75", noreg.MissRate)
	}
	readNs := float64(noreg.ReadTime.Nanoseconds())
	if readNs < 60 || readNs > 85 {
		t.Fatalf("NoReg read time = %.1fns, want ~70", readNs)
	}

	m2 := New(0.62)
	var reg Snapshot
	for i := 0; i < 60; i++ {
		reg = m2.Update(act(62, 60))
	}
	if reg.MissRate >= noreg.MissRate-0.05 {
		t.Fatalf("regulated miss %.2f not clearly below NoReg %.2f", reg.MissRate, noreg.MissRate)
	}
	ratio := float64(reg.ReadTime) / float64(noreg.ReadTime)
	if ratio > 0.88 {
		t.Fatalf("regulated/NoReg read-time ratio = %.2f, want <= ~0.85 (paper: 47/68)", ratio)
	}
}

func TestCPUFactorReferencedAtRegulatedPoint(t *testing.T) {
	m := New(0)
	var s Snapshot
	for i := 0; i < 60; i++ {
		s = m.Update(act(62, 60))
	}
	if s.CPUFactor < 1.0 || s.CPUFactor > 1.12 {
		t.Fatalf("regulated CPU factor = %.3f, want ~1.0", s.CPUFactor)
	}
}

func TestGPUFactorDampedVsCPU(t *testing.T) {
	m := New(0)
	var s Snapshot
	for i := 0; i < 60; i++ {
		s = m.Update(act(200, 95))
	}
	if s.GPUFactor <= 1.0 {
		t.Fatal("GPU factor should exceed 1 under contention")
	}
	if (s.GPUFactor - 1) >= (s.CPUFactor-1)*0.5 {
		t.Fatalf("GPU factor %.3f not damped relative to CPU factor %.3f", s.GPUFactor, s.CPUFactor)
	}
}

func TestEWMASmoothsSpikes(t *testing.T) {
	m := New(0)
	for i := 0; i < 50; i++ {
		m.Update(act(60, 60))
	}
	base := m.Current().MissRate
	spike := m.Update(act(400, 200)).MissRate
	var settled Snapshot
	for i := 0; i < 60; i++ {
		settled = m.Update(act(400, 200))
	}
	if spike >= settled.MissRate {
		t.Fatalf("single window jumped fully: %.3f >= %.3f", spike, settled.MissRate)
	}
	if spike <= base {
		t.Fatal("spike had no effect at all")
	}
}

func TestZeroActivity(t *testing.T) {
	m := New(0)
	s := m.Update(Activity{})
	if s.MissRate <= 0 || s.MissRate > 0.6 {
		t.Fatalf("idle miss rate = %.2f, want base level", s.MissRate)
	}
	if s.CPUFactor != 1 {
		t.Fatalf("idle CPU factor = %.3f, want 1", s.CPUFactor)
	}
	if s.IPC <= 0 {
		t.Fatal("idle IPC must be positive")
	}
}

func TestDefaultsApplied(t *testing.T) {
	if m := New(0); m.ipcPeak != defaultIPCPeak {
		t.Fatalf("New(0) IPC peak = %v, want %v", m.ipcPeak, defaultIPCPeak)
	}
	if m := New(0.9); m.ipcPeak != 0.9 {
		t.Fatalf("explicit IPC peak overridden: %v", m.ipcPeak)
	}
}

func TestTrafficModel(t *testing.T) {
	a := act(100, 50)
	got := a.TrafficGBs()
	per := float64(1280*720*4) / 1e9
	want := per * (1.6*100 + 2.0*50 + 1.3*50)
	if got != want {
		t.Fatalf("TrafficGBs = %v, want %v", got, want)
	}
}

// Property: outputs stay within physical bounds for arbitrary activity.
func TestSnapshotBoundsProperty(t *testing.T) {
	f := func(r, e uint16) bool {
		m := New(0)
		var s Snapshot
		for i := 0; i < 20; i++ {
			s = m.Update(act(float64(r%1000), float64(e%500)))
		}
		return s.MissRate >= 0 && s.MissRate <= 1 &&
			s.IPC > 0 && s.IPC <= m.ipcPeak+1e-9 &&
			s.CPUFactor >= 1 && s.GPUFactor >= 1 &&
			s.ReadTime > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
