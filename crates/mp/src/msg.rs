//! Message representation and matching filters.

/// A user-visible message tag. User tags must be below `MAX_USER_TAG`;
/// the range above is reserved for collective-operation sequencing.
pub type Tag = u32;

/// Highest user tag value (exclusive). Tags with the top bit set are
/// reserved for internal collective traffic.
pub(crate) const MAX_USER_TAG: Tag = 1 << 31;

/// Internal: the collective-reserved tag bit.
pub(crate) const COLL_BIT: Tag = 1 << 31;

/// A message in flight. `src` is the *global* rank of the sender; `tag`
/// packs the communicator id (high 32 bits) with the in-communicator tag
/// (low 32 bits) so that traffic on different communicators never matches.
/// The payload is shared ([`Payload`]), so fan-out sends of one buffer to
/// many destinations never copy it per edge.
#[derive(Debug)]
pub(crate) struct Message {
    pub src: usize,
    pub full_tag: u64,
    pub data: crate::payload::Payload,
    /// Simulated arrival time under virtual execution (None otherwise).
    pub arrival: Option<simnet::Time>,
}

/// Packs a communicator id and tag into a wire tag.
#[inline]
pub(crate) fn pack_tag(comm_id: u32, tag: Tag) -> u64 {
    (u64::from(comm_id) << 32) | u64::from(tag)
}

/// A receive-side matching filter.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Match {
    /// Communicator the receive is posted on (always matched exactly).
    pub comm_id: u32,
    /// Expected *global* sender rank, or `None` for any source.
    pub src: Option<usize>,
    /// Expected tag, or `None` for any tag.
    pub tag: Option<Tag>,
}

impl Match {
    /// Whether a message with the given envelope (global source + packed
    /// tag) satisfies this filter — the key-level form the indexed mailbox
    /// matches lanes and posted receives against without needing a
    /// materialised [`Message`].
    #[inline]
    pub(crate) fn accepts_parts(&self, src: usize, full_tag: u64) -> bool {
        if (full_tag >> 32) as u32 != self.comm_id {
            return false;
        }
        if let Some(want) = self.src {
            if src != want {
                return false;
            }
        }
        if let Some(tag) = self.tag {
            if (full_tag & 0xFFFF_FFFF) as Tag != tag {
                return false;
            }
        }
        true
    }

    /// Whether source and tag are both pinned, making the filter a direct
    /// lane address (O(1) lookup) rather than a wildcard scan.
    #[inline]
    pub(crate) fn is_exact(&self) -> bool {
        self.src.is_some() && self.tag.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, comm: u32, tag: Tag) -> Message {
        Message {
            src,
            full_tag: pack_tag(comm, tag),
            data: crate::payload::Payload::from_vec(Vec::new()),
            arrival: None,
        }
    }

    #[test]
    fn exact_match() {
        let m = msg(3, 7, 42);
        let f = Match {
            comm_id: 7,
            src: Some(3),
            tag: Some(42),
        };
        assert!(f.accepts_parts(m.src, m.full_tag));
    }

    #[test]
    fn comm_id_always_matched() {
        let m = msg(3, 7, 42);
        let f = Match {
            comm_id: 8,
            src: None,
            tag: None,
        };
        assert!(!f.accepts_parts(m.src, m.full_tag));
    }

    #[test]
    fn wildcards() {
        let m = msg(3, 7, 42);
        assert!(Match {
            comm_id: 7,
            src: None,
            tag: Some(42)
        }
        .accepts_parts(m.src, m.full_tag));
        assert!(Match {
            comm_id: 7,
            src: Some(3),
            tag: None
        }
        .accepts_parts(m.src, m.full_tag));
        assert!(Match {
            comm_id: 7,
            src: None,
            tag: None
        }
        .accepts_parts(m.src, m.full_tag));
        assert!(!Match {
            comm_id: 7,
            src: Some(4),
            tag: None
        }
        .accepts_parts(m.src, m.full_tag));
        assert!(!Match {
            comm_id: 7,
            src: None,
            tag: Some(41)
        }
        .accepts_parts(m.src, m.full_tag));
    }

    #[test]
    fn tag_packing_separates_comm_and_tag() {
        let t = pack_tag(0xABCD, 0x1234);
        assert_eq!(t >> 32, 0xABCD);
        assert_eq!(t & 0xFFFF_FFFF, 0x1234);
    }
}
