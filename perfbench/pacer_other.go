//go:build !linux

package main

import "time"

// pacer falls back to Go's timers where there is no timerfd; they may wake
// up to a millisecond late, which the send lag then shows.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*pacer) close() error { return nil }
