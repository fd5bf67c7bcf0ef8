// Package buildinfo carries the build-time identity stamped into released
// binaries, so a deployed cpr, cpr-bench, or cprd can always say which
// build it is. Inject the version at build time with
//
//	go build -ldflags "-X cpr/internal/buildinfo.Version=$(git describe --tags --always)" ./cmd/...
//
// Unstamped builds report "dev" plus the VCS revision embedded by the Go
// toolchain when available, marked "+dirty" when the working tree had
// uncommitted changes.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Version is the release identifier, overridden via -ldflags -X.
var Version = "dev"

// String returns the one-line identity printed by every binary's -version
// flag: tool name, version, VCS revision when embedded, and the toolchain.
func String(tool string) string {
	var settings []debug.BuildSetting
	if bi, ok := debug.ReadBuildInfo(); ok {
		settings = bi.Settings
	}
	return format(tool, settings)
}

// format renders the identity line from the toolchain's build settings.
// The revision is "(<12 hex digits>)", with "+dirty" appended when
// vcs.modified is true, so a binary built from an edited tree cannot pass
// for the commit it started from; without vcs.revision it is left out.
func format(tool string, settings []debug.BuildSetting) string {
	rev, dirty := "", false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			if len(s.Value) >= 12 {
				rev = s.Value[:12]
			}
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if dirty {
			rev += "+dirty"
		}
		rev = " (" + rev + ")"
	}
	return fmt.Sprintf("%s %s%s %s %s/%s", tool, Version, rev, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
