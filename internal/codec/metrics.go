package codec

import (
	"log/slog"

	"graphsketch/internal/obs"
)

// codecMetrics is the package's obs handle bundle. Handles are nil until
// collection is enabled, and every obs method is a no-op on a nil receiver,
// so disabled call sites cost one branch.
type codecMetrics struct {
	ckptWriteBytes *obs.Counter
	ckptReadBytes  *obs.Counter
	rejections     *obs.Counter
}

// The checkpoint spans time every write and read, failed ones included.
var (
	writeSpan = obs.NewSpanKind("codec.checkpoint_write", "Latency of writing one checkpoint frame.")
	readSpan  = obs.NewSpanKind("codec.checkpoint_read", "Latency of reading and restoring one checkpoint frame.")
)

// reject records a decode rejection (any typed sentinel path): the counter
// feeds /metrics, and the flight-recorder event keeps the rejected frame's
// typed cause inspectable at /debug/events after the fact.
func (m *codecMetrics) reject(err error) {
	if IsDecodeError(err) {
		m.rejections.Inc()
		obs.RecordEvent("codec.reject", slog.String("err", err.Error()))
	}
}

var cdm codecMetrics

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		cdm.ckptWriteBytes = r.Counter("codec_checkpoint_write_bytes_total",
			"Bytes written in checkpoint frames, envelope included.")
		cdm.ckptReadBytes = r.Counter("codec_checkpoint_read_bytes_total",
			"Bytes read in checkpoint frames, envelope included.")
		cdm.rejections = r.Counter("codec_decode_rejections_total",
			"Frames rejected by a typed decode error.")
	})
}
