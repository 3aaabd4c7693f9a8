//! # kgag-tensor
//!
//! Dense tensors, reverse-mode automatic differentiation and first-order
//! optimizers, written from scratch for the KGAG reproduction (Rust has no
//! mature GNN/autodiff ecosystem to lean on).
//!
//! The crate is organised around four ideas:
//!
//! * [`Tensor`] — a dense, row-major, 2-D `f32` tensor with plain math
//!   (matmul, elementwise maps, reductions). Vectors are `[n, 1]` tensors.
//! * [`ParamStore`] — a named collection of trainable tensors addressed by
//!   cheap [`ParamId`] handles.
//! * [`Tape`] — a reverse-mode autodiff tape. Every operation appends a
//!   node; [`Tape::backward`] walks the nodes in reverse and produces a
//!   [`Gradients`] map from `ParamId` to dense gradient tensors. Besides the
//!   usual dense ops the tape has the *grouped* operations that make
//!   receptive-field GNN computation and group attention cheap:
//!   `softmax_groups`, `group_weighted_sum`, `group_mean`, `repeat_rows`
//!   and `peer_concat`.
//! * [`optim`] — `Sgd`, `Adam` and `AdaGrad` optimizers over a
//!   `ParamStore`, with optional L2 weight decay (the λ‖Θ‖² term of the
//!   paper's Eq. 20).
//! * [`pool`] — a std-only deterministic thread pool (`KGAG_THREADS`)
//!   that the hot kernels here and in the downstream crates use for
//!   within-op parallelism with bit-identical results at any thread
//!   count.
//!
//! ```
//! use kgag_tensor::{ParamStore, Tape, Tensor, init, optim::{Adam, Optimizer}};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Tensor::zeros(2, 1));
//! // minimise ‖x·w − y‖² for a fixed x, y
//! let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let y = Tensor::from_rows(&[&[5.0], &[11.0]]);
//! let mut opt = Adam::new(0.05);
//! for _ in 0..2000 {
//!     let mut tape = Tape::new(&store);
//!     let xw = {
//!         let xc = tape.constant(x.clone());
//!         let wn = tape.param(w);
//!         tape.matmul(xc, wn)
//!     };
//!     let yc = tape.constant(y.clone());
//!     let diff = tape.sub(xw, yc);
//!     let sq = tape.mul(diff, diff);
//!     let loss = tape.mean_all(sq);
//!     let grads = tape.backward(loss);
//!     opt.step(&mut store, &grads);
//! }
//! let learned = store.value(w);
//! assert!((learned.data()[0] - 1.0).abs() < 5e-2);
//! assert!((learned.data()[1] - 2.0).abs() < 5e-2);
//! ```

pub mod checkpoint;
pub mod cmp;
pub mod infer;
pub mod init;
pub mod optim;
pub mod params;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod tanh;
pub mod tape;
pub mod tensor;

pub use params::{Gradients, ParamId, ParamStore};
pub use shape::Shape;
pub use tape::{NodeId, Tape};
pub use tensor::Tensor;
