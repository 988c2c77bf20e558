//go:build race

package ndsserver_test

func init() { raceEnabled = true }
