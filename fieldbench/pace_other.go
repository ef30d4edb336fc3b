//go:build !linux

package main

import "time"

// pace sleeps for d.
func pace(d time.Duration) { time.Sleep(d) }
