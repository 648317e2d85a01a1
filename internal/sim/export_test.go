package sim

// Step advances the simulation by exactly one tick, regardless of
// completion state: the engine idles fine with zero runnable apps. Apps
// must have been placed (PlaceApp); unplaced apps are skipped.
func (e *Engine) Step() { e.tick() }

// WorkerProgress returns the completed work of Workers[i] in GB.
func (a *App) WorkerProgress(i int) float64 { return a.progressGB[i] }
