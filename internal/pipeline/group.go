package pipeline

import (
	"time"

	"odr/internal/memmodel"
	"odr/internal/powermodel"
	"odr/internal/sim"
)

// GroupConfig describes a server-consolidation run: several sessions
// co-located on one cloud server, time-sharing its GPU and encode cores and
// contending in DRAM. This extends the paper's single-session evaluation to
// the resource-efficiency question its introduction motivates: how many
// cloud-gaming sessions fit on a server at QoS under each regulation policy?
type GroupConfig struct {
	// Sessions are the per-session pipeline configurations (each with its
	// own seed; typically the same benchmark/policy).
	Sessions []Config
	// GPUCapacity is the number of full GPUs available (1.0 = one GPU
	// time-shared across sessions).
	GPUCapacity float64
	// CPUCores is the number of cores available to the copy/encode/logic
	// work of all sessions together.
	CPUCores float64
}

// GroupResult carries the per-session results plus server-level accounting.
type GroupResult struct {
	Per []*Result
	// ServerPowerWatts is the whole server's average wall power.
	ServerPowerWatts float64
	// ServerEnergyJoules is the total energy over the measured span.
	ServerEnergyJoules float64
	// GPULoad and CPULoad are the average demanded load (in GPUs / cores).
	GPULoad float64
	CPULoad float64
}

// RunGroup executes the co-located sessions in a single simulation with
// shared DRAM, GPU and CPU capacity, and returns per-session results plus
// server-level power.
func RunGroup(gc GroupConfig) *GroupResult {
	if len(gc.Sessions) == 0 {
		return &GroupResult{}
	}
	if gc.GPUCapacity <= 0 {
		gc.GPUCapacity = 1
	}
	if gc.CPUCores <= 0 {
		gc.CPUCores = 4
	}
	env := sim.NewEnv()
	states := make([]*pipelineState, len(gc.Sessions))
	for i, cfg := range gc.Sessions {
		states[i] = build(cfg, env)
		states[i].spawnStages()
	}
	mem := memmodel.New(gc.Sessions[0].Workload.CPUIPC)
	power := powermodel.New(powermodel.Config{})

	var gpuLoadSum, cpuLoadSum float64
	loadSamples := 0

	env.Spawn("group-monitor", func(p *sim.Proc) {
		const win = 100 * time.Millisecond
		const gapEvery = 5
		type prev struct {
			rendered, encoded       int64
			gpuBusy, cpuBusy        time.Duration
			gpuDemand, cpuDemand    time.Duration
			gapRendered, gapDisplay int64
		}
		last := make([]prev, len(states))
		tick := 0
		for {
			p.Sleep(win)
			for _, st := range states {
				if !st.collecting && p.Now() >= warmup {
					st.collecting = true
					st.startBytes = st.link.SentBytes()
				}
			}
			// Aggregate activity and load across sessions, plus the
			// demand-weighted GPU power intensity for mixed-benchmark
			// groups. Busy time (which
			// includes the time-sharing stretch) drives the oversubscription
			// factor — this is the physical discipline: the sum of raw GPU
			// seconds delivered per second can never exceed the capacity.
			// Demand (raw service time) is reported as utilization.
			var act memmodel.Activity
			var gpuBusy, cpuBusy float64
			var gpuLoad, cpuLoad float64
			var intensityWeight, intensitySum float64
			for i, st := range states {
				rD := st.rendered - last[i].rendered
				eD := st.encoded - last[i].encoded
				last[i].rendered, last[i].encoded = st.rendered, st.encoded
				act.RenderFPS += float64(rD) / win.Seconds()
				act.CopyFPS += float64(eD) / win.Seconds()
				act.EncodeFPS += float64(eD) / win.Seconds()
				act.RawFrameBytes = max(act.RawFrameBytes, st.cfg.rawFrameBytes())
				gB := st.gpuBusy - last[i].gpuBusy
				cB := st.cpuBusy - last[i].cpuBusy
				last[i].gpuBusy, last[i].cpuBusy = st.gpuBusy, st.cpuBusy
				gpuBusy += gB.Seconds() / win.Seconds()
				cpuBusy += cB.Seconds() / win.Seconds()
				gD := st.gpuDemand - last[i].gpuDemand
				cD := st.cpuDemand - last[i].cpuDemand
				last[i].gpuDemand, last[i].cpuDemand = st.gpuDemand, st.cpuDemand
				gpuLoad += gD.Seconds() / win.Seconds()
				cpuLoad += cD.Seconds() / win.Seconds()
				intensitySum += gD.Seconds() * st.cfg.Workload.GPUShare
				intensityWeight += gD.Seconds()
			}
			snap := mem.Update(act)
			// Time-sharing: when busy time exceeds capacity, every session's
			// service times stretch by the oversubscription factor until the
			// delivered (raw) work fits the capacity.
			extGPU := gpuBusy / gc.GPUCapacity
			if extGPU < 1 {
				extGPU = 1
			}
			extCPU := cpuBusy / gc.CPUCores
			if extCPU < 1 {
				extCPU = 1
			}
			anyCollecting := false
			for _, st := range states {
				s := snap
				if st.cfg.DisableContention {
					s = st.mem.Current()
				}
				st.memSnap = s
				st.extGPU = extGPU
				st.extCPU = extCPU
				if st.collecting {
					anyCollecting = true
					st.memMiss.Add(s.MissRate)
					st.memRead.Add(float64(s.ReadTime) / float64(time.Nanosecond))
					st.memIPC.Add(s.IPC)
				}
			}
			if anyCollecting {
				intensity := states[0].cfg.Workload.GPUShare
				if intensityWeight > 0 {
					intensity = intensitySum / intensityWeight
				}
				power.Accumulate(powermodel.Usage{
					CPUUtil:      clamp01(cpuLoad / gc.CPUCores),
					GPUUtil:      clamp01(gpuLoad / gc.GPUCapacity),
					GPUIntensity: intensity,
					TrafficGBs:   snap.TrafficGBs,
				}, win.Seconds())
				gpuLoadSum += gpuLoad
				cpuLoadSum += cpuLoad
				loadSamples++
			}
			tick++
			if tick%gapEvery == 0 {
				span := win.Seconds() * gapEvery
				for i, st := range states {
					renderFPS := float64(st.rendered-last[i].gapRendered) / span
					clientFPS := float64(st.displayed-last[i].gapDisplay) / span
					last[i].gapRendered, last[i].gapDisplay = st.rendered, st.displayed
					st.policy.OnWindow(renderFPS, clientFPS)
					if st.collecting {
						st.gap.AddWindow(renderFPS, clientFPS)
					}
				}
			}
		}
	})

	total := warmup + states[0].cfg.Duration
	env.Run(total)
	for _, st := range states {
		st.policy.Close()
	}
	env.Shutdown()

	out := &GroupResult{
		ServerPowerWatts:   power.AverageWatts(),
		ServerEnergyJoules: power.EnergyJoules(),
	}
	for _, st := range states {
		out.Per = append(out.Per, st.result(total))
	}
	if loadSamples > 0 {
		out.GPULoad = gpuLoadSum / float64(loadSamples)
		out.CPULoad = cpuLoadSum / float64(loadSamples)
	}
	return out
}
