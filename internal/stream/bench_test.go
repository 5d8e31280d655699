package stream

import (
	"net"
	"testing"
	"time"
)

// BenchmarkStreamEndToEnd measures full-stack frame throughput (render +
// encode + pipe + decode) for one session at a small resolution, with the
// target set far above what the pipeline can deliver.
func BenchmarkStreamEndToEnd(b *testing.B) {
	h := NewHub(HubConfig{Width: 96, Height: 54, TargetFPS: 100000})
	go h.Run()
	defer h.Stop()
	sc, cc := net.Pipe()
	h.Attach(sc, 0, nil)
	cli := NewClient(cc)
	go func() { _ = cli.Run() }()
	b.SetBytes(int64(96 * 54 * 4))
	b.ResetTimer()
	start := cli.Report().Frames
	for cli.Report().Frames < start+int64(b.N) {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	rep := cli.Report()
	if rep.FPS > 0 {
		b.ReportMetric(rep.FPS, "frames/s")
	}
	cli.Stop()
}

// BenchmarkHubBroadcast measures hub throughput with four concurrent
// viewers sharing one render loop.
func BenchmarkHubBroadcast(b *testing.B) {
	h := NewHub(HubConfig{Width: 96, Height: 54, TargetFPS: 0})
	go h.Run()
	defer h.Stop()
	const viewers = 4
	clients := make([]*Client, viewers)
	for i := range clients {
		sc, cc := net.Pipe()
		h.Attach(sc, 0, nil)
		clients[i] = NewClient(cc)
		c := clients[i]
		go func() { _ = c.Run() }()
		defer c.Stop()
	}
	b.ResetTimer()
	target := int64(b.N)
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		done := true
		for _, c := range clients {
			if c.Report().Frames < target {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(h.Rendered()), "renders")
}
