// Package obs is a stand-in for graphsketch/internal/obs with the same
// span surface; the analyzer matches it by import-path suffix.
package obs

import "log/slog"

type SpanKind struct{}

func NewSpanKind(name, help string) *SpanKind { return &SpanKind{} }

type Span struct{}

func StartSpan(k *SpanKind) *Span { return nil }

func (sp *Span) Child(k *SpanKind) *Span { return nil }

func (sp *Span) SetAttrs(attrs ...slog.Attr) {}

func (sp *Span) End(attrs ...slog.Attr) int64 { return 0 }
