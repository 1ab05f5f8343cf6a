//go:build !linux

package main

func fsType(string) string { return "unknown" }

func cpuTime() (float64, bool) { return 0, false }
