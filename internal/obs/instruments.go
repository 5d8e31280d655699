package obs

// Canonical registry names follow odr_<subsystem>_<noun>_<unit>
// (counters additionally end in _total, Prometheus-style).
const (
	NameFramesRendered  = "odr_frames_rendered_total"
	NameFramesEncoded   = "odr_frames_encoded_total"
	NameFramesDisplayed = "odr_frames_displayed_total"
	NameFramesDropped   = "odr_frames_dropped_total"
	NameFramesPriority  = "odr_frames_priority_total"
	NameInputs          = "odr_inputs_received_total"
	NameTilesCoded      = "odr_tiles_coded_total"
	NameTilesDirty      = "odr_tiles_dirty_total"
	NameSessionsEvicted = "odr_sessions_evicted_total"

	NameRenderUs     = "odr_render_us"
	NameEncodeUs     = "odr_encode_us"
	NameTileEncodeUs = "odr_tile_encode_us"
	NameTxUs         = "odr_tx_us"
	NameMtPUs        = "odr_mtp_us"

	NameDirtyRatio = "odr_dirty_tile_ratio"
)

// frameHelp is the # HELP text per canonical family.
var frameHelp = map[string]string{
	NameFramesRendered:  "Frames rendered by the 3D application.",
	NameFramesEncoded:   "Frames encoded by the server proxy.",
	NameFramesDisplayed: "Frames displayed (sent to the client, server side).",
	NameFramesDropped:   "Frames dropped by latest-wins buffers or tail drop.",
	NameFramesPriority:  "PriorityFrame promotions (input-triggered renders).",
	NameInputs:          "User inputs received.",
	NameTilesCoded:      "Tiles emitted by the tile codec (dirty or clean).",
	NameTilesDirty:      "Tiles that carried an encoded payload.",
	NameSessionsEvicted: "Sessions cut for blowing a read or write deadline.",
	NameRenderUs:        "Render step service time, microseconds.",
	NameEncodeUs:        "Encode step service time, microseconds.",
	NameTileEncodeUs:    "Per-tile slice of the encode step, microseconds.",
	NameTxUs:            "Network transmit service time, microseconds.",
	NameMtPUs:           "Motion-to-photon latency, microseconds.",
	NameDirtyRatio:      "Dirty/total tile ratio of the last encoded frame.",
}

// FrameInstruments bundles the registry instruments a stream hub records
// for its frame path, under one naming vocabulary; the hub writes every
// one of them. (The simulator keeps its books in pipeline.Result and
// shares only the tracer.) All fields are nil when built from a nil
// registry, which makes every record a no-op.
type FrameInstruments struct {
	// Counters (events since start).
	Rendered  *Counter // odr_frames_rendered_total
	Encoded   *Counter // odr_frames_encoded_total
	Displayed *Counter // odr_frames_displayed_total (sent, for the server side)
	Dropped   *Counter // odr_frames_dropped_total (MulBuf / latest-wins / tail drops)
	Priority  *Counter // odr_frames_priority_total (PriorityFrame promotions)
	Inputs    *Counter // odr_inputs_received_total

	// Tile codec counters (see internal/codec/tile.go).
	TilesCoded *Counter // odr_tiles_coded_total (tiles of every encoded frame)
	TilesDirty *Counter // odr_tiles_dirty_total (tiles that actually carried a payload)

	// Histograms of per-step service time, in microseconds.
	Render     *Histogram // odr_render_us
	Encode     *Histogram // odr_encode_us
	TileEncode *Histogram // odr_tile_encode_us (per-tile slice of odr_encode_us)
	Tx         *Histogram // odr_tx_us
	MtP        *Histogram // odr_mtp_us (motion-to-photon)

	// Gauge refreshed per encoded frame.
	DirtyRatio *Gauge // odr_dirty_tile_ratio
}

// NewFrameInstruments resolves the standard instrument set in r (nil r
// yields all-nil, no-op instruments), registering the help text as a side
// effect.
func NewFrameInstruments(r *Registry) FrameInstruments {
	ins := FrameInstruments{
		Rendered:   r.Counter(NameFramesRendered),
		Encoded:    r.Counter(NameFramesEncoded),
		Displayed:  r.Counter(NameFramesDisplayed),
		Dropped:    r.Counter(NameFramesDropped),
		Priority:   r.Counter(NameFramesPriority),
		Inputs:     r.Counter(NameInputs),
		TilesCoded: r.Counter(NameTilesCoded),
		TilesDirty: r.Counter(NameTilesDirty),
		Render:     r.Histogram(NameRenderUs),
		Encode:     r.Histogram(NameEncodeUs),
		TileEncode: r.Histogram(NameTileEncodeUs),
		Tx:         r.Histogram(NameTxUs),
		MtP:        r.Histogram(NameMtPUs),
		DirtyRatio: r.Gauge(NameDirtyRatio),
	}
	for name, help := range frameHelp {
		r.SetHelp(name, help)
	}
	return ins
}
