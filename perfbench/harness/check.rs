//! Answer checking. Every distinct document read is answered by
//! `xml::naive::select` after the timed window; update probes are
//! checked against the writer's own record of acknowledged commits.

use std::collections::HashMap;

use xtwig_core::Strategy;
use xtwig_xml::naive;
use xtwig_xml::XmlForest;

use crate::stream::Read;

/// FNV-1a over the ids: answers are compared by digest in the timed
/// loop, so no answer is kept per request.
pub fn digest(ids: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in ids {
        for b in id.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One read as the harness saw it.
#[derive(Debug, Clone)]
pub struct ReadSample {
    pub read: Read,
    pub latency_ns: u64,
    /// Server-reported execution time (`WireAnswer.micros`); 0 in process.
    pub server_us: u64,
    pub n_ids: u32,
    pub digest: u64,
    /// The strategy that answered (`None` when the call failed).
    pub strategy: Option<Strategy>,
    pub from_cache: bool,
    /// Transport error or typed refusal, rendered.
    pub error: Option<String>,
    /// For update probes: the expected answer (`Some(id)` live, `None`
    /// deleted).
    pub probe: Option<ProbeExpect>,
}

#[derive(Debug, Clone, Copy)]
pub struct ProbeExpect {
    pub live_id: Option<u64>,
}

/// Strategies the service maintains under updates (ROADMAP: the other
/// five go stale after a commit — known defect 1).
pub fn maintained(s: Strategy) -> bool {
    matches!(s, Strategy::RootPaths | Strategy::DataPaths)
}

/// The outcome of checking a run's reads.
#[derive(Debug, Default)]
pub struct Verdict {
    pub reads: u64,
    pub correct: u64,
    /// Transport errors and typed refusals.
    pub errors: u64,
    /// Probes answered stale by an unmaintained strategy (known defect).
    pub stale: u64,
    /// Wrong answers not explained by a documented defect.
    pub unexpected: u64,
    /// One line per distinct wrong (query, answering strategy).
    pub listing: Vec<String>,
}

impl Verdict {
    /// Operations that did not return the right answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.stale + self.unexpected
    }
}

/// Expected answers of document reads, computed once per distinct read.
pub struct Oracle<'a> {
    forest: &'a XmlForest,
    paper: Vec<&'static str>,
    answers: HashMap<Read, Vec<u64>>,
}

impl<'a> Oracle<'a> {
    pub fn new(forest: &'a XmlForest) -> Oracle<'a> {
        Oracle { forest, paper: crate::stream::paper_xpaths(), answers: HashMap::new() }
    }

    pub fn expected(&mut self, read: Read) -> &[u64] {
        let (forest, paper) = (self.forest, &self.paper);
        self.answers.entry(read).or_insert_with(|| {
            let twig = xtwig_core::parse_xpath(&read.xpath(paper)).expect("templates parse");
            naive::select(forest, &twig).into_iter().map(|n| n.0).collect()
        })
    }

    pub fn distinct(&self) -> usize {
        self.answers.len()
    }

    /// Checks every sample; the oracle runs outside any timed window.
    pub fn verify(&mut self, samples: &[ReadSample]) -> Verdict {
        let mut v = Verdict::default();
        let mut listed: HashMap<(Read, Option<Strategy>), u64> = HashMap::new();
        for s in samples {
            v.reads += 1;
            if s.error.is_some() {
                v.errors += 1;
                continue;
            }
            let expected_digest = match s.probe {
                Some(p) => digest(p.live_id),
                None => digest(self.expected(s.read).iter().copied()),
            };
            if s.digest == expected_digest {
                v.correct += 1;
                continue;
            }
            let stale = s.probe.is_some_and(|p| p.live_id.is_some())
                && s.n_ids == 0
                && s.strategy.is_some_and(|st| !maintained(st));
            if stale {
                v.stale += 1;
            } else {
                v.unexpected += 1;
            }
            // Probes are listed per answering strategy, not per person.
            let key = if matches!(s.read, Read::Probe(_)) { Read::Probe(u32::MAX) } else { s.read };
            *listed.entry((key, s.strategy)).or_default() += 1;
        }
        let mut listing: Vec<String> = listed
            .into_iter()
            .map(|((read, strategy), n)| {
                let answered = strategy.map_or("?", |s| s.label());
                let query = match read {
                    Read::Probe(_) => "/site/people/person[name = 'bench-K']".to_owned(),
                    _ => read.xpath(&self.paper),
                };
                format!(
                    "wrong x{n}: {query} requested auto, answered by {answered}{}",
                    if matches!(read, Read::Probe(_)) && strategy.is_some_and(|s| !maintained(s)) {
                        " (stale after update: ROADMAP known defect 1)"
                    } else {
                        ""
                    }
                )
            })
            .collect();
        listing.sort();
        v.listing = listing;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(
        read: Read,
        ids: &[u64],
        strategy: Strategy,
        probe: Option<ProbeExpect>,
    ) -> ReadSample {
        ReadSample {
            read,
            latency_ns: 1,
            server_us: 0,
            n_ids: ids.len() as u32,
            digest: digest(ids.iter().copied()),
            strategy: Some(strategy),
            from_cache: false,
            error: None,
            probe,
        }
    }

    #[test]
    fn probes_separate_stale_from_wrong() {
        let forest = XmlForest::new();
        let mut oracle = Oracle::new(&forest);
        let live = Some(ProbeExpect { live_id: Some(7) });
        let gone = Some(ProbeExpect { live_id: None });
        let v = oracle.verify(&[
            sample(Read::Probe(1), &[7], Strategy::RootPaths, live),
            sample(Read::Probe(1), &[], Strategy::Asr, live),
            sample(Read::Probe(1), &[], Strategy::DataPaths, live),
            sample(Read::Probe(2), &[], Strategy::Asr, gone),
            sample(Read::Probe(2), &[9], Strategy::RootPaths, gone),
        ]);
        assert_eq!((v.correct, v.stale, v.unexpected), (2, 1, 2));
        assert_eq!(v.failed(), 3);
        assert_eq!(v.listing.len(), 3);
        assert!(v.listing.iter().any(|l| l.contains("answered by ASR (stale")));
    }
}
