package govern

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
)

// ParseBytes parses a human-readable byte size: a plain integer is
// bytes; a K/M/G/T suffix (optionally "iB" or "B", case-insensitive) is
// binary-scaled. "" parses to 0.
func ParseBytes(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	u := strings.ToUpper(s)
	u = strings.TrimSuffix(u, "IB")
	u = strings.TrimSuffix(u, "B")
	shift := 0
	switch {
	case strings.HasSuffix(u, "K"):
		shift, u = 10, u[:len(u)-1]
	case strings.HasSuffix(u, "M"):
		shift, u = 20, u[:len(u)-1]
	case strings.HasSuffix(u, "G"):
		shift, u = 30, u[:len(u)-1]
	case strings.HasSuffix(u, "T"):
		shift, u = 40, u[:len(u)-1]
	}
	n, err := strconv.ParseUint(strings.TrimSpace(u), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if shift > 0 && n > (1<<63)>>shift {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n << shift, nil
}

// Setup builds a governor from the CLIs' two -mem-* flag values
// (sizes per ParseBytes; both empty → nil governor, no governance).
// When limit is set it also becomes the Go runtime's soft memory limit
// (debug.SetMemoryLimit), and unset watermarks default to fractions of
// it (see Config.withDefaults).
func Setup(high, limit string, warn func(format string, args ...any)) (*Governor, error) {
	highB, err := ParseBytes(high)
	if err != nil {
		return nil, fmt.Errorf("-mem-high: %v", err)
	}
	limitB, err := ParseBytes(limit)
	if err != nil {
		return nil, fmt.Errorf("-mem-limit: %v", err)
	}
	if highB == 0 && limitB == 0 {
		return nil, nil
	}
	if limitB > 0 {
		debug.SetMemoryLimit(int64(limitB))
	}
	return New(Config{
		HighBytes: highB,
		MemLimit:  limitB,
		Warn:      warn,
	}), nil
}
