// Command odrtop is a live terminal dashboard over any ODR /metrics URL:
// it scrapes the Prometheus text exposition the server publishes
// (odrserver -debug-addr), derives per-second rates from consecutive
// scrapes, estimates latency quantiles from the exported histograms, and
// pivots the labeled odr_session_* series into a per-session QoE/energy
// table — top(1) for a streaming fleet, with zero dependencies.
//
// Usage:
//
//	odrtop [-url http://localhost:8099/metrics] [-interval 1s] [-once]
//	curl -s localhost:8099/metrics | odrtop -url -
//
// With -url - (or an empty url) one exposition document is read from
// stdin and rendered once; -once scrapes once and exits without taking
// over the terminal. Otherwise the screen refreshes every interval.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"odr/internal/obs/scrape"
)

func main() {
	url := flag.String("url", "http://localhost:8099/metrics", `metrics URL ("-" reads one document from stdin)`)
	interval := flag.Duration("interval", time.Second, "refresh interval")
	once := flag.Bool("once", false, "render a single frame and exit")
	flag.Parse()
	log.SetFlags(0)

	if *url == "-" || *url == "" {
		doc, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatalf("odrtop: reading stdin: %v", err)
		}
		s, err := scrape.ParseBytes(doc)
		if err != nil {
			log.Fatalf("odrtop: %v", err)
		}
		fmt.Print(render(s, nil, 0, "stdin"))
		return
	}

	var prev *scrape.Scrape
	var prevAt time.Time
	for {
		s, err := scrape.Fetch(*url)
		now := time.Now()
		if err != nil {
			if *once {
				log.Fatalf("odrtop: %v", err)
			}
			fmt.Printf("\x1b[2J\x1b[Hodrtop — %s\n\nscrape failed: %v\n", *url, err)
		} else {
			var dt time.Duration
			if prev != nil {
				dt = now.Sub(prevAt)
			}
			out := render(s, prev, dt, *url)
			if *once {
				fmt.Print(out)
				return
			}
			fmt.Print("\x1b[2J\x1b[H" + out)
			prev, prevAt = s, now
		}
		time.Sleep(*interval)
	}
}

// labelString renders a sample's labels as {k="v",...} ("" when unlabeled).
func labelString(sm *scrape.Sample) string {
	if len(sm.Labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sm.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// render formats one dashboard frame. prev (and dt) enable counter rates.
func render(s, prev *scrape.Scrape, dt time.Duration, src string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "odrtop — %s", src)
	if bi := s.Series("odr_build_info"); len(bi) > 0 {
		fmt.Fprintf(&b, "   (%s %s/%s)", bi[0].Label("go_version"), bi[0].Label("goos"), bi[0].Label("goarch"))
	}
	b.WriteString("\n\n")

	// Hub line: why the shared renderer runs at the rate it does.
	if target, ok := s.Value("odr_hub_render_target_fps"); ok {
		if target == 0 {
			b.WriteString("hub: parked — no viewer attached, nothing rendered\n\n")
		} else {
			fmt.Fprintf(&b, "hub: render clock at %.4g fps (the fastest attached viewer's rate; input frames come on top)\n\n", target)
		}
	}

	names := make([]string, 0, len(s.Families))
	for i := range s.Families {
		names = append(names, s.Families[i].Name)
	}
	sort.Strings(names)

	// Counters: lifetime totals plus the rate since the previous scrape.
	fmt.Fprintf(&b, "%-44s %14s %10s\n", "COUNTERS", "total", "/s")
	for _, name := range names {
		f := s.Family(name)
		if f.Type != "counter" {
			continue
		}
		for i := range f.Samples {
			sm := &f.Samples[i]
			series := sm.Name + labelString(sm)
			rate := "-"
			if prev != nil && dt > 0 {
				if pv, ok := prev.Value(sm.Name, sm.Labels...); ok {
					rate = fmt.Sprintf("%.1f", (sm.Value-pv)/dt.Seconds())
				}
			}
			fmt.Fprintf(&b, "  %-42s %14.0f %10s\n", series, sm.Value, rate)
		}
	}

	// Histograms: count, mean, and scraped-quantile estimates.
	fmt.Fprintf(&b, "\n%-30s %12s %10s %10s %10s %10s\n", "HISTOGRAMS", "count", "mean", "p50", "p95", "p99")
	for _, name := range names {
		f := s.Family(name)
		if f.Type != "histogram" {
			continue
		}
		count := s.Number(name + "_count")
		mean := 0.0
		if count > 0 {
			mean = s.Number(name+"_sum") / count
		}
		p50, _ := s.Quantile(name, 0.50)
		p95, _ := s.Quantile(name, 0.95)
		p99, _ := s.Quantile(name, 0.99)
		fmt.Fprintf(&b, "  %-28s %12.0f %10.1f %10.1f %10.1f %10.1f\n", name, count, mean, p50, p95, p99)
	}

	// Per-session QoE/energy pivot of the labeled live series.
	sessions := s.LabelValues("odr_session_fps", "session")
	if len(sessions) > 0 {
		fmt.Fprintf(&b, "\n%-10s %8s %9s %9s %8s %8s %10s %10s %10s\n",
			"SESSION", "fps", "mtp_ms", "p99_ms", "smooth", "watts", "render_j", "encode_j", "net_j")
		for _, sess := range sessions {
			l := scrape.Label{Name: "session", Value: sess}
			fmt.Fprintf(&b, "%-10s %8.1f %9.1f %9.1f %8.2f %8.1f %10.1f %10.1f %10.1f\n",
				sess,
				s.Number("odr_session_fps", l),
				s.Number("odr_session_mtp_ms", l),
				s.Number("odr_session_mtp_p99_ms", l),
				s.Number("odr_session_smoothness", l),
				s.Number("odr_session_watts", l),
				s.Number("odr_session_energy_joules", l, scrape.Label{Name: "component", Value: "render"}),
				s.Number("odr_session_energy_joules", l, scrape.Label{Name: "component", Value: "encode"}),
				s.Number("odr_session_energy_joules", l, scrape.Label{Name: "component", Value: "network"}))
		}
	}

	// Remaining gauges (the session pivot above already showed the
	// odr_session_* families).
	fmt.Fprintf(&b, "\n%-44s %14s\n", "GAUGES", "value")
	for _, name := range names {
		f := s.Family(name)
		if f.Type != "gauge" || strings.HasPrefix(name, "odr_session_") {
			continue
		}
		for i := range f.Samples {
			sm := &f.Samples[i]
			fmt.Fprintf(&b, "  %-42s %14.2f\n", sm.Name+labelString(sm), sm.Value)
		}
	}
	return b.String()
}
