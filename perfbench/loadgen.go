package main

import (
	"sync"
	"time"
)

// closedLoop runs clients goroutines that each send their next request
// only after the previous one returned, until the deadline passes; do
// receives the client index. It returns the gaps between a client's
// previous reply and its next send (the closed-loop analogue of
// generator lag).
func closedLoop(clients int, deadline time.Time, do func(client int)) []time.Duration {
	var (
		mu   sync.Mutex
		lags []time.Duration
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := now()
			for now().Before(deadline) {
				lag := time.Since(last)
				mu.Lock()
				lags = append(lags, lag)
				mu.Unlock()
				do(c)
				last = now()
			}
		}(c)
	}
	wg.Wait()
	return lags
}
