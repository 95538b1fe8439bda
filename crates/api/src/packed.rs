//! Packed solutions: what the solution cache holds for each entry.
//!
//! A cached answer is a witness schedule, one communication vector per
//! task (Definition 1). As a [`Solution`], every task takes 48 or 56
//! bytes of its task array whatever its times. Packed, it takes a few
//! bytes, because a schedule's times sit close together: each start is
//! written as a delta from the previous task's start, and each emission
//! as a delta from the next time on its route.
//!
//! The bytes are LEB128 varints, signed values zigzagged:
//!
//! * a tag byte: the schedule's representation, and whether a relaxed
//!   makespan, a cover or lengths that differ from the places follow;
//!   then the makespan;
//! * the relaxed makespan's `f64` bits, 8 bytes little-endian;
//! * the cover: its leg count, then per leg its length and its `(c, w)`
//!   pairs;
//! * the task count, then per task its place (a chain task's `proc`, a
//!   spider task's `leg` and `depth`, a tree task's `node` and vector
//!   length), its start as a delta from the previous task's start
//!   (0 before the first), its work, and its emissions from the last
//!   link inwards, each as a delta from the next time on the route: the
//!   start, then the emission one link further out. A chain or spider
//!   vector's length is its place's `proc` or `depth`, written apart only
//!   when some task's differs.
//!
//! Deltas wrap, so every field round-trips exactly for any `i64`.
//! [`Packed::unpack`] decodes through a canonical form's [`Mapping`],
//! rescaling and relabelling as it reads, so a cache hit builds one
//! solution.

use crate::canon::Mapping;
use crate::solution::{ScheduleRepr, Solution};
use mst_platform::{Chain, NodeId, Processor, Spider, Time};
use mst_schedule::{
    ChainSchedule, CommVector, SpiderSchedule, SpiderTask, TaskAssignment, TreeSchedule, TreeTask,
};
use std::sync::Arc;

/// The tag's representation bits.
const REPR: u8 = 0b11;
const CHAIN: u8 = 1;
const SPIDER: u8 = 2;
const TREE: u8 = 3;
/// The relaxed makespan's bits follow the makespan.
const RELAXED: u8 = 1 << 2;
/// A cover follows.
const COVER: u8 = 1 << 3;
/// Some chain or spider task's vector length differs from its `proc` or
/// `depth`, so every such task writes its length after its place.
const LENGTHS: u8 = 1 << 4;

/// A solution as bytes, with its solver's name beside them. Clones share
/// the bytes.
#[derive(Debug, Clone)]
pub(crate) struct Packed {
    solver: &'static str,
    bytes: Arc<[u8]>,
}

impl Packed {
    /// Packs `solution`.
    pub(crate) fn of(solution: &Solution) -> Packed {
        let mut out = Writer(Vec::with_capacity(16 + 8 * solution.n()));
        let (mut tag, lengths) = match solution.schedule() {
            None => (0, false),
            Some(ScheduleRepr::Chain(s)) => {
                (CHAIN, s.tasks().iter().any(|t| t.proc != t.comms.len()))
            }
            Some(ScheduleRepr::Spider(s)) => {
                (SPIDER, s.tasks().iter().any(|t| t.node.depth != t.comms.len()))
            }
            Some(ScheduleRepr::Tree(_)) => (TREE, false),
        };
        for (flag, set) in [
            (RELAXED, solution.relaxed_makespan().is_some()),
            (COVER, solution.sub_platform().is_some()),
            (LENGTHS, lengths),
        ] {
            if set {
                tag |= flag;
            }
        }
        out.0.push(tag);
        out.int(solution.makespan());
        if let Some(relaxed) = solution.relaxed_makespan() {
            out.0.extend_from_slice(&relaxed.to_bits().to_le_bytes());
        }
        if let Some(cover) = solution.sub_platform() {
            out.uint(cover.num_legs());
            for leg in cover.legs() {
                out.uint(leg.len());
                for p in leg.processors() {
                    out.int(p.comm);
                    out.int(p.work);
                }
            }
        }
        let mut start = 0;
        match solution.schedule() {
            None => {}
            Some(ScheduleRepr::Chain(s)) => {
                out.uint(s.n());
                for t in s.tasks() {
                    out.uint(t.proc);
                    if lengths {
                        out.uint(t.comms.len());
                    }
                    out.times(&mut start, t.start, t.work, &t.comms);
                }
            }
            Some(ScheduleRepr::Spider(s)) => {
                out.uint(s.n());
                for t in s.tasks() {
                    out.uint(t.node.leg);
                    out.uint(t.node.depth);
                    if lengths {
                        out.uint(t.comms.len());
                    }
                    out.times(&mut start, t.start, t.work, &t.comms);
                }
            }
            Some(ScheduleRepr::Tree(s)) => {
                out.uint(s.n());
                for t in s.tasks() {
                    out.uint(t.node);
                    out.uint(t.comms.len());
                    out.times(&mut start, t.start, t.work, &t.comms);
                }
            }
        }
        Packed { solver: solution.solver(), bytes: out.0.into() }
    }

    /// The number of packed bytes.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The packed solution restored through `map`: equal to
    /// `restore(&solution)` for the canonical form whose mapping `map` is,
    /// and to the packed solution itself for [`Mapping::IDENTITY`].
    pub(crate) fn unpack(&self, map: Mapping<'_>) -> Solution {
        let mut r = Reader { bytes: &self.bytes };
        let tag = r.byte();
        let makespan = r.int();
        let relaxed = (tag & RELAXED != 0).then(|| {
            let (bits, rest) = r.bytes.split_at(8);
            r.bytes = rest;
            f64::from_bits(u64::from_le_bytes(bits.try_into().expect("eight bytes")))
        });
        let cover = (tag & COVER != 0).then(|| {
            let legs = (0..r.uint())
                .map(|_| {
                    let procs = (0..r.uint())
                        .map(|_| Processor { comm: map.time(r.int()), work: map.time(r.int()) })
                        .collect();
                    Chain::new(procs).expect("a packed leg has processors")
                })
                .collect();
            Spider::new(legs).expect("a packed cover has legs")
        });
        let (covered, lengths) = (cover.is_some(), tag & LENGTHS != 0);
        let mut start = 0;
        let schedule = match tag & REPR {
            CHAIN => {
                let tasks = (0..r.uint())
                    .map(|_| {
                        let proc = r.uint();
                        let len = if lengths { r.uint() } else { proc };
                        let (start, comms, work) = r.times(&mut start, len, map);
                        TaskAssignment { proc, start, comms, work }
                    })
                    .collect();
                Some(ScheduleRepr::Chain(ChainSchedule::new(tasks)))
            }
            SPIDER => {
                let tasks = (0..r.uint())
                    .map(|_| {
                        let leg = map.leg(r.uint(), covered);
                        let depth = r.uint();
                        let len = if lengths { r.uint() } else { depth };
                        let (start, comms, work) = r.times(&mut start, len, map);
                        SpiderTask { node: NodeId { leg, depth }, start, comms, work }
                    })
                    .collect();
                Some(ScheduleRepr::Spider(SpiderSchedule::new(tasks)))
            }
            TREE => {
                let tasks = (0..r.uint())
                    .map(|_| {
                        let node = map.node(r.uint());
                        let len = r.uint();
                        let (start, comms, work) = r.times(&mut start, len, map);
                        TreeTask::new(node, start, comms, work)
                    })
                    .collect();
                Some(ScheduleRepr::Tree(TreeSchedule::new(tasks)))
            }
            _ => None,
        };
        map.assemble(self.solver, makespan, schedule, cover, relaxed)
    }
}

struct Writer(Vec<u8>);

impl Writer {
    fn uint(&mut self, v: usize) {
        self.varint(v as u64);
    }

    fn int(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    /// One task's start, work and emissions; `prev` is the previous
    /// task's start, and becomes this one's.
    fn times(&mut self, prev: &mut Time, start: Time, work: Time, comms: &CommVector) {
        self.int(start.wrapping_sub(*prev));
        *prev = start;
        self.int(work);
        let mut next = start;
        for &emission in comms.times().iter().rev() {
            self.int(next.wrapping_sub(emission));
            next = emission;
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl Reader<'_> {
    #[inline(always)]
    fn byte(&mut self) -> u8 {
        let (&byte, rest) = self.bytes.split_first().expect("packed bytes are whole");
        self.bytes = rest;
        byte
    }

    #[inline(always)]
    fn varint(&mut self) -> u64 {
        let byte = self.byte();
        if byte < 0x80 {
            return u64::from(byte);
        }
        let (mut v, mut shift) = (u64::from(byte & 0x7f), 7);
        loop {
            let byte = self.byte();
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    #[inline]
    fn uint(&mut self) -> usize {
        self.varint() as usize
    }

    #[inline]
    fn int(&mut self) -> i64 {
        let v = self.varint();
        (v >> 1) as i64 ^ -((v & 1) as i64)
    }

    /// One task's start, emissions and work, read in the order
    /// [`Writer::times`] wrote them and restored through `map`; `prev` is
    /// the previous task's canonical start, and becomes this one's.
    #[inline(always)]
    fn times(&mut self, prev: &mut Time, len: usize, map: Mapping<'_>) -> (Time, CommVector, Time) {
        let start = prev.wrapping_add(self.int());
        *prev = start;
        let work = self.int();
        let mut next = start;
        let mut fill = |times: &mut [Time]| {
            for slot in times.iter_mut().rev() {
                next = next.wrapping_sub(self.int());
                *slot = map.time(next);
            }
        };
        // A vector that `CommVector` holds in place is read into a local
        // copy: filled through `from_fill`, it decodes about a tenth slower.
        let mut inline = [0; 2];
        let comms = match inline.get_mut(..len) {
            Some(times) => {
                fill(times);
                CommVector::from_slice(times)
            }
            None => CommVector::from_fill(len, fill),
        };
        (map.time(start), comms, map.time(work))
    }
}
