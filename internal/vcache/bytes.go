package vcache

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// byteUnits maps the accepted size suffixes to their byte multipliers.
// Binary (KiB/MiB/...) and decimal-looking (KB/MB/...) suffixes both mean
// the binary multiple — memory budgets are table allocations, and a "512MB"
// budget that silently meant 512·10⁶ would under-report the table by 5%.
var byteUnits = []struct {
	suffix string
	mult   int64
}{
	{"tib", 1 << 40}, {"tb", 1 << 40}, {"t", 1 << 40},
	{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
	{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
	{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
	{"b", 1},
}

// ParseBytes parses a human-readable byte size ("64MiB", "1.5g", "4096")
// into bytes. A bare number is bytes; suffixes are case-insensitive and
// binary (K=1024). The empty string parses as 0 (no budget). Negative,
// non-finite ("nan", "inf") and int64-overflowing sizes are errors: a
// budget <= 0 means unlimited, so none of them may silently turn into
// one.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, nil
	}
	mult := int64(1)
	for _, u := range byteUnits {
		if strings.HasSuffix(t, u.suffix) {
			mult = u.mult
			t = strings.TrimSpace(strings.TrimSuffix(t, u.suffix))
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || math.IsNaN(v) || v < 0 {
		return 0, fmt.Errorf("vcache: invalid byte size %q", s)
	}
	// 2^63 is exact in float64, and every smaller float64 converts to
	// int64 without overflow; +Inf compares above it.
	n := v * float64(mult)
	if n >= 1<<63 {
		return 0, fmt.Errorf("vcache: byte size %q overflows int64", s)
	}
	return int64(n), nil
}

// FormatBytes renders a byte count human-readably with binary units
// ("16.0MiB"), matching what ParseBytes accepts.
func FormatBytes(n int64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
		tib = 1 << 40
	)
	switch {
	case n >= tib:
		return fmt.Sprintf("%.1fTiB", float64(n)/float64(tib))
	case n >= gib:
		return fmt.Sprintf("%.1fGiB", float64(n)/float64(gib))
	case n >= mib:
		return fmt.Sprintf("%.1fMiB", float64(n)/float64(mib))
	case n >= kib:
		return fmt.Sprintf("%.1fKiB", float64(n)/float64(kib))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
