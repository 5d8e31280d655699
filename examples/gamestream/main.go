// Gamestream: the real-time stack end-to-end over a real TCP connection on
// localhost — a hub rendering the synthetic game under ODR regulation for one
// viewer, and a client decoding frames, injecting inputs and measuring FPS
// and motion-to-photon latency.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"odr"
)

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	// Server side: a hub with one viewer.
	reg := odr.NewMetricsRegistry()
	hub := odr.NewHub(odr.HubConfig{
		Width: 320, Height: 180,
		Policy:    odr.StreamODR,
		TargetFPS: 60,
		Metrics:   reg,
	})
	go hub.Run()
	detached := make(chan odr.SessionStats, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			log.Print(err)
			return
		}
		hub.Attach(conn, 0, func(st odr.SessionStats) { detached <- st })
	}()

	// Client side.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	cli := odr.NewStreamClient(conn)
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		if err := cli.Run(); err != nil {
			log.Printf("client: %v", err)
		}
	}()

	// Play for three seconds, clicking a few times a second like a human.
	end := time.Now().Add(3 * time.Second)
	for time.Now().Before(end) {
		time.Sleep(280 * time.Millisecond)
		if _, err := cli.SendInput(); err != nil {
			break
		}
	}
	time.Sleep(200 * time.Millisecond)
	rep := cli.Report()
	cli.Stop()
	<-clientDone
	st := <-detached
	hub.Stop()

	count := func(name string) int64 { return reg.Counter(name).Value() }
	fmt.Printf("server: rendered %d, encoded %d, sent %d, dropped %d, priority %d\n",
		count("odr_frames_rendered_total"), count("odr_frames_encoded_total"),
		st.Sent, st.Dropped, count("odr_frames_priority_total"))
	fmt.Printf("client: %d frames at %.1f FPS, %.1f KB/frame, MtP mean %.1f ms (p99 %.1f ms, %d samples)\n",
		rep.Frames, rep.FPS, float64(rep.Bytes)/float64(rep.Frames)/1024,
		rep.MeanLatency, rep.P99Latency, rep.LatencySamples)
}
