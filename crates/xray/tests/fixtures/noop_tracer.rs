//! Fixture: every method of the no-op tracer must have an empty body;
//! the recording tracer's methods may do work.

impl StepTracer for NoTrace {
    fn step_begin(&mut self) {}

    fn step_end(&mut self, _: u64) {
        let started = snapshot();
        let _ = started;
    }

    fn materialized(&mut self, _: usize) {
        // A comment alone keeps the body empty.
    }
}

impl StepTracer for &mut Trace {
    fn step_begin(&mut self) {
        self.begin("step", "");
    }
}
