//! # lr-ds
//!
//! Concurrent data structures on simulated memory, in the paper's base
//! and leased variants (plus backoff variants for the §7 comparison):
//!
//! | Structure | Module | Variants |
//! |---|---|---|
//! | Treiber stack \[41\] | [`stack`] | base / backoff / leased |
//! | Michael–Scott queue \[27\] | [`queue`] | base / leased / multi-leased |
//! | Two-lock MS queue \[27\] | [`two_lock_queue`] | TTS / leased locks |
//! | Lotan–Shavit priority queue \[23\] on Pugh skiplist \[33\] | [`pq`], [`pugh_skiplist`] | baseline / global-lock / global-leased-lock |
//! | MultiQueues \[36\] | [`multiqueue`] | base / leased (Algorithm 4) |
//! | Harris list \[17\] | [`harris_list`] | base / predecessor-leased |
//! | Hash table | [`hashtable`] | per-bucket lock / leased lock |
//! | Binary search tree | [`bst`] | base / leased |
//! | Sequential skiplist | [`seq_skiplist`] | (substrate for locks/MultiQueues) |
//! | Delegated stack/counter | [`delegated`] | MCS / CLH / FC / CCSynch (+lease hybrids) |
//! | Replicated counter/KV (node replication) | [`replicated`] | plain MSI / lease hybrid |

#![forbid(unsafe_code)]

pub mod bst;
pub mod delegated;
pub mod harris_list;
pub mod hashtable;
pub mod multiqueue;
pub mod pq;
pub mod pugh_skiplist;
pub mod queue;
pub mod replicated;
pub mod seq_skiplist;
pub mod stack;
pub mod two_lock_queue;

pub use bst::Bst;
pub use delegated::{
    CounterApply, DelegatedCounter, DelegatedStack, StackApply, STACK_EMPTY, STACK_POP, STACK_PUSH,
};
pub use harris_list::HarrisList;
pub use hashtable::HashTable;
pub use multiqueue::{MqVariant, MultiQueue};
pub use pq::PriorityQueue;
pub use pugh_skiplist::LockingSkipList;
pub use queue::{MsQueue, QueueVariant};
pub use replicated::{
    CounterReplica, KvReplica, ReplHandle, Replicated, ReplicatedCounter, ReplicatedKv, KV_ADD,
    KV_GET, KV_MISS, KV_PUT,
};
pub use seq_skiplist::SeqSkipList;
pub use stack::{StackVariant, TreiberStack};
pub use two_lock_queue::{TwoLockQueue, TwoLockVariant};
