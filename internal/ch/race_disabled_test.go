//go:build !race

package ch_test

const raceEnabled = false
