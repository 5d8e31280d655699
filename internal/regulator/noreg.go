package regulator

import (
	"math"

	"odr/internal/core"
)

// NoReg is the unregulated baseline (§4.1): the push half under
// core.RuleNoReg. The renderer free-runs, the proxy always encodes the newest
// rendered frame (older un-encoded frames are discarded), and encoded frames
// are pushed into the send buffer where they queue or tail-drop. This is the
// configuration whose FPS gap wastes power and whose send-queue buildup
// produces multi-second MtP latency on bandwidth-limited paths.
type NoReg struct{ push }

// NewNoReg returns the NoReg policy.
func NewNoReg(ctx *Ctx) *NoReg {
	return &NoReg{newPush(ctx, core.RuleNoReg, math.Inf(1))}
}
