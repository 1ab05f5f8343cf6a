package main

import (
	"fmt"
	"syscall"
)

// fsType names the filesystem holding dir, so fsync timings from tmpfs
// (where fsync does nothing) are never mistaken for disk timings.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlay"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// cpuTime returns the process's user plus system CPU seconds.
func cpuTime() (float64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), true
}
