//go:build !linux

package main

import "time"

func fsType(string) string { return "unknown" }

func rssPeakMB() float64 { return 0 }

func cpuTime() time.Duration { return 0 }
