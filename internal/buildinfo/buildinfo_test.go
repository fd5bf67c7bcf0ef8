package buildinfo

import (
	"runtime"
	"runtime/debug"
	"testing"
)

func TestFormat(t *testing.T) {
	const hash = "0123456789abcdef0123456789abcdef01234567"
	tail := " " + runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
	for _, tc := range []struct {
		name     string
		settings []debug.BuildSetting
		want     string
	}{
		{"clean", []debug.BuildSetting{{Key: "vcs.revision", Value: hash}, {Key: "vcs.modified", Value: "false"}},
			"cpr dev (0123456789ab)" + tail},
		{"dirty", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: hash}},
			"cpr dev (0123456789ab+dirty)" + tail},
		{"no-vcs", nil, "cpr dev" + tail},
		{"modified-without-revision", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, "cpr dev" + tail},
	} {
		if got := format("cpr", tc.settings); got != tc.want {
			t.Errorf("%s: format = %q, want %q", tc.name, got, tc.want)
		}
	}
}
