//! Fixture: the configured untraced executor function must stay free
//! of timing/span identifiers; its traced sibling may use them.

impl QueryEngine {
    fn execute(&self) {
        let started = Instant::now();
        let _ = started;
    }

    fn answer_traced(&self) {
        let started = Instant::now();
        let _ = started;
    }
}
