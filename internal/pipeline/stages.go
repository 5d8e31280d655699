package pipeline

import (
	"time"

	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/memmodel"
	"odr/internal/obs"
	"odr/internal/powermodel"
	"odr/internal/sim"
	"odr/internal/simrt"
)

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// rendererProc is the 3D application plus GPU (Fig. 2 step 3). The policy's
// RenderGate supplies the regulation delay (its render clock's rule, plus
// ODR's Mul-Buf1 wait); pending inputs are combined into the next frame.
func (st *pipelineState) rendererProc(p *sim.Proc) {
	w := simrt.NewWaiter(p)
	var seq uint64
	for {
		st.policy.RenderGate(w)
		costs := st.sampler.NextFrame()
		seq++
		f := &frame.Frame{
			Seq:        seq,
			Complexity: costs.Complexity,
			Bytes:      costs.Bytes,
			CostRender: costs.Render,
			CostCopy:   costs.Copy,
			CostEncode: costs.Encode,
			CostDecode: costs.Decode,
		}
		inputs := st.carried
		st.carried = nil
		inputs = append(inputs, st.inputs.ConsumePending()...)
		core.Tag(f, inputs)
		if f.Priority {
			st.priority++
		}
		f.RenderStart = p.Now()
		rt := scaleDur(costs.Render, st.memSnap.GPUFactor*st.extGPU)
		p.Sleep(rt)
		f.RenderEnd = p.Now()
		st.gpuBusy += rt
		st.gpuDemand += scaleDur(costs.Render, st.memSnap.GPUFactor)
		// Game-logic CPU work runs alongside the GPU each frame.
		st.cpuBusy += scaleDur(costs.Render, 0.35)
		st.cpuDemand += scaleDur(costs.Render, 0.35)
		st.rendered++
		st.tr.Span(obs.TrackRender, "render", f.Seq, f.RenderStart, f.RenderEnd)
		if f.Priority {
			st.tr.Instant(obs.TrackRender, "priority-frame", f.Seq, f.RenderStart)
			st.ins.Priority.Inc()
		}
		st.ins.Rendered.Inc()
		st.ins.Render.ObserveDuration(rt)
		if st.collecting {
			st.renderCounter.Tick(p.Now())
			st.renderTimes.Add(msf(rt))
		}
		st.policy.SubmitRendered(w, f)
	}
}

// proxyProc is the server proxy: framebuffer copy (step 4) and video encode
// (step 5). CPU-side service times are scaled by the DRAM-contention factor,
// which is how excessive rendering slows the very steps that bound client
// FPS (§4.3).
func (st *pipelineState) proxyProc(p *sim.Proc) {
	w := simrt.NewWaiter(p)
	for {
		f := st.policy.AcquireForEncode(w)
		if f == nil {
			return
		}
		start := p.Now()
		ct := scaleDur(f.CostCopy, st.memSnap.CPUFactor*st.extCPU)
		p.Sleep(ct)
		f.CopyEnd = p.Now()
		f.EncodeStart = p.Now()
		et := scaleDur(f.CostEncode, st.memSnap.CPUFactor*st.extCPU)
		p.Sleep(et)
		f.EncodeEnd = p.Now()
		st.cpuBusy += ct + et
		st.cpuDemand += scaleDur(f.CostCopy+f.CostEncode, st.memSnap.CPUFactor)
		st.encoded++
		st.tr.Span(obs.TrackProxy, "copy", f.Seq, start, f.CopyEnd)
		st.tr.Span(obs.TrackProxy, "encode", f.Seq, f.EncodeStart, f.EncodeEnd)
		st.ins.Encoded.Inc()
		st.ins.Copy.ObserveDuration(ct)
		st.ins.Encode.ObserveDuration(et)
		if st.collecting {
			st.encodeCounter.Tick(p.Now())
			st.encodeTimes.Add(msf(et))
		}
		st.policy.SubmitEncoded(w, f)
	}
}

// networkProc serializes encoded frames onto the path (step 6): bandwidth-
// limited transmission followed by propagation to the client.
func (st *pipelineState) networkProc(p *sim.Proc) {
	w := simrt.NewWaiter(p)
	for {
		f := st.policy.AcquireForSend(w)
		if f == nil {
			return
		}
		txStart := p.Now()
		tx := st.link.TxTime(f.Bytes, st.policy.SendBacklog())
		p.Sleep(tx)
		f.SendEnd = p.Now()
		st.policy.DoneSend(f)
		prop := st.link.PropDelay()
		st.tr.Span(obs.TrackNetwork, "tx", f.Seq, txStart, f.SendEnd)
		st.ins.Tx.ObserveDuration(tx + prop)
		if st.collecting {
			st.transTimes.Add(msf(tx + prop))
		}
		fc := f
		st.env.After(prop, func() { st.deliver.PutDrop(fc) })
	}
}

// clientProc decodes (step 7) and displays frames, measures client FPS and
// motion-to-photon latency, and (for RVS) generates the vblank feedback.
func (st *pipelineState) clientProc(p *sim.Proc) {
	for {
		f := st.deliver.Get(p)
		arrive := p.Now()
		p.Sleep(f.CostDecode)
		f.DecodeEnd = p.Now()
		st.tr.Span(obs.TrackClient, "decode", f.Seq, arrive, f.DecodeEnd)
		st.ins.Decode.ObserveDuration(f.DecodeEnd - arrive)
		display, shown := st.policy.DisplayTime(f, f.DecodeEnd)
		if !shown {
			continue
		}
		// Variable-refresh display (FreeSync/G-Sync): the panel refreshes
		// when the frame arrives, as long as the inter-refresh time stays
		// above the panel's minimum (1/VRRMaxHz). Faster arrivals wait for
		// the window to open; there is no tearing and no vblank rounding.
		if st.cfg.VRRMaxHz > 0 {
			minGap := time.Duration(float64(time.Second) / st.cfg.VRRMaxHz)
			if earliest := st.lastDisplay + minGap; display < earliest {
				display = earliest
			}
		}
		f.DecodeEnd = display
		st.displayed++
		st.tr.Instant(obs.TrackClient, "display", f.Seq, display)
		st.ins.Displayed.Inc()
		for _, s := range f.Inputs {
			st.ins.MtP.ObserveDuration(display - s.Issued)
		}
		if st.collecting {
			st.clientCounter.Tick(display)
			if f.Extra {
				st.extraDisplayed++
			}
			if st.lastDisplay > 0 {
				st.interDisplay.Add(msf(display - st.lastDisplay))
			}
			for _, s := range f.Inputs {
				st.mtp.Record(display - s.Issued)
			}
			if len(st.frameTrace) < st.cfg.CollectFrames {
				st.frameTrace = append(st.frameTrace, *f)
			}
		}
		st.lastDisplay = display
	}
}

// inputProc models the user: Poisson-arriving inputs issued at the client
// and delivered to the server proxy after the uplink propagation delay.
func (st *pipelineState) inputProc(p *sim.Proc) {
	for {
		p.Sleep(st.sampler.NextInputGap())
		id := st.sampler.NextInputID()
		issued := p.Now()
		st.env.After(st.link.PropDelay(), func() {
			st.inputs.OnInput(id, issued)
			st.tr.Instant(obs.TrackInput, "input", uint64(id), st.dom.Now())
			st.ins.Inputs.Inc()
		})
	}
}

// monitorProc samples activity every 100 ms: it drives the DRAM-contention
// and power models and, on 500 ms boundaries, computes the FPS gap and feeds
// adaptive policies their rate observations.
func (st *pipelineState) monitorProc(p *sim.Proc) {
	const win = 100 * time.Millisecond
	const gapEvery = 5 // 500 ms
	var lastRendered, lastEncoded int64
	var lastGPU, lastCPU time.Duration
	var gapRendered, gapDisplayed int64
	tick := 0
	for {
		p.Sleep(win)
		if !st.collecting && p.Now() >= st.cfg.Warmup {
			st.collecting = true
			st.startBytes = st.link.SentBytes()
		}
		rD := st.rendered - lastRendered
		eD := st.encoded - lastEncoded
		lastRendered, lastEncoded = st.rendered, st.encoded
		act := memmodel.Activity{
			RenderFPS:     float64(rD) / win.Seconds(),
			CopyFPS:       float64(eD) / win.Seconds(),
			EncodeFPS:     float64(eD) / win.Seconds(),
			RawFrameBytes: st.cfg.RawFrameBytes,
		}
		if !st.cfg.DisableContention {
			st.memSnap = st.mem.Update(act)
		}
		gpuD := st.gpuBusy - lastGPU
		cpuD := st.cpuBusy - lastCPU
		lastGPU, lastCPU = st.gpuBusy, st.cpuBusy
		if st.collecting {
			st.memMiss.Add(st.memSnap.MissRate)
			st.memRead.Add(float64(st.memSnap.ReadTime) / float64(time.Nanosecond))
			st.memIPC.Add(st.memSnap.IPC)
			st.power.Accumulate(powermodel.Usage{
				CPUUtil:      clamp01(cpuD.Seconds() / win.Seconds()),
				GPUUtil:      clamp01(gpuD.Seconds() / win.Seconds()),
				GPUIntensity: st.cfg.Workload.GPUShare,
				TrafficGBs:   st.memSnap.TrafficGBs,
			}, win.Seconds())
		}
		tick++
		if tick%gapEvery == 0 {
			span := win.Seconds() * gapEvery
			renderFPS := float64(st.rendered-gapRendered) / span
			clientFPS := float64(st.displayed-gapDisplayed) / span
			gapRendered, gapDisplayed = st.rendered, st.displayed
			st.policy.OnWindow(renderFPS, clientFPS)
			st.ins.RenderFPS.Set(renderFPS)
			st.ins.ClientFPS.Set(clientFPS)
			st.ins.FPSGap.Set(renderFPS - clientFPS)
			if st.collecting {
				st.gap.AddWindow(renderFPS, clientFPS)
			}
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
