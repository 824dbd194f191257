(** Pipeline-wide observability: spans, counters, histograms, exporters.

    The measurement substrate behind the paper's runtime claims (the ~0.8 %
    integration overhead, Table 4's per-pair solver effort): hierarchical
    spans with begin/end nesting, monotonic counters, and fixed-bucket
    histograms, all recorded against an injectable clock and drained
    through deterministic exporters (Chrome trace-event JSON for Perfetto,
    JSONL metric dumps, a summary table).

    Design constraints, in priority order:

    - {b near-zero cost when disabled}: every instrumentation point is a
      single mutable-bool check; counter bumps are an int store with no
      allocation, so the [Sim64] settle loop can stay instrumented
      permanently (the overhead regression test in [test_telemetry]
      asserts byte-identical GC allocation counts with telemetry off);
    - {b deterministic under the virtual clock}: the virtual source
      advances by a fixed step on every read, so two identical runs
      produce byte-identical exports — the property the golden-trace
      tests and the CI trace diff rely on;
    - {b tolerant of unbalanced use}: a stray {!end_span} is ignored and
      {!snapshot} virtually closes still-open spans, so any interleaving
      of begin/end through this API yields a well-formed forest (the
      QCheck property);
    - {b domain-safe}: counters and histograms are shared across OCaml 5
      domains and bump through lock-free atomics (two domains hammering
      the same counter lose no increments — the two-domain test in
      [test_telemetry]); span state is domain-local, so each domain grows
      its own well-formed forest and a coordinator stitches worker
      forests into its trace with {!harvest}/{!absorb}.

    The sink is global (one process, one trace), matching the
    one-pipeline-per-process shape of [vega_cli] and [bench].
    {!enable}/{!disable}/{!reset} are coordinator operations: call them
    from the main domain while no worker domains are running. *)

(** Argument values attachable to spans (rendered into exporter [args]). *)
type value = Int of int | Float of float | Str of string | Bool of bool

(** Time sources.  All timestamps are integer nanoseconds in a native
    [int] (63 bits holds ~292 years). *)
module Clock : sig
  type t

  val monotonic : unit -> t
  (** Real time ([Unix.gettimeofday]), clamped to be strictly increasing
      across reads so span nesting always has monotone timestamps. *)

  val virtual_ : ?start_ns:int -> ?step_ns:int -> unit -> t
  (** Deterministic test source: starts at [start_ns] (default 0) and
      advances by [step_ns] (default 1000, i.e. 1 us) on every read.
      @raise Invalid_argument if [step_ns <= 0]. *)

  val now_ns : t -> int
  (** Read the clock.  Every read of a virtual clock advances it. *)

  val is_virtual : t -> bool
end

(** {1 Sink lifecycle} *)

val enabled : unit -> bool
(** Whether the global sink is recording.  The one check every
    instrumentation point makes; hot paths with argument lists should
    guard on it explicitly so the arguments are never even allocated. *)

val enable : ?clock:Clock.t -> unit -> unit
(** Start a fresh recording session: clears spans, zeroes every
    registered counter and histogram, installs [clock] (default: a new
    monotonic source). *)

val disable : unit -> unit
(** Stop recording.  Collected data is retained for {!snapshot}. *)

val reset : unit -> unit
(** Clear the calling domain's spans and zero every registered counter
    and histogram (shared across domains) without changing the enabled
    state or the clock. *)

(** {1 Spans} *)

val begin_span : ?cat:string -> string -> unit
(** Open a span nested under the calling domain's innermost open span.
    No-op when disabled.  Span state is domain-local: spans opened in a
    worker domain build that domain's private forest (see {!harvest}). *)

val end_span : ?args:(string * value) list -> unit -> unit
(** Close the innermost open span, attaching [args].  A stray end (no
    open span) is ignored.  No-op when disabled. *)

val with_span : ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span, closed with [args] when [f]
    returns and even when it raises.  When disabled it costs one flag
    check before calling [f]. *)

val span_depth : unit -> int
(** Number of currently open spans in the calling domain. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) the counter with this name.  Counters are
      created once at module-initialization time by the instrumented
      libraries and live for the whole process; {!enable}/[reset] zero
      their values but never unregister them. *)

  val add : t -> int -> unit
  (** Allocation-free bump, recorded only while the sink is enabled. *)

  val incr : t -> unit
  val value : t -> int

  (** Pure snapshot, the unit of cross-shard aggregation. *)
  type snapshot = { c_name : string; c_value : int }

  val merge : snapshot -> snapshot -> snapshot
  (** Sum of two snapshots of the same counter (associative and
      commutative).  @raise Invalid_argument on a name mismatch. *)
end

(** {1 Fixed-bucket histograms} *)

module Histogram : sig
  type t

  val make : string -> bounds:int array -> t
  (** Register (or look up) a histogram with the given inclusive bucket
      upper bounds; an implicit overflow bucket catches everything above
      the last bound.  @raise Invalid_argument if [bounds] is not
      strictly increasing, or on re-registration with different
      bounds. *)

  val observe : t -> int -> unit
  (** Record a value (while enabled). *)

  type snapshot = {
    h_name : string;
    h_bounds : int array;
    h_counts : int array;  (** length = length bounds + 1 (overflow last) *)
    h_total : int;
    h_sum : int;
  }

  val snapshot_value : t -> snapshot

  val merge : snapshot -> snapshot -> snapshot
  (** Bucket-wise sum (associative and commutative).
      @raise Invalid_argument on a name or bounds mismatch. *)
end

(** {1 Snapshots} *)

(** A completed span: a node of the forest. *)
type span = {
  sp_name : string;
  sp_cat : string;
  sp_start_ns : int;
  sp_end_ns : int;
  sp_args : (string * value) list;
  sp_children : span list;  (** in start order *)
}

(** {1 Cross-domain span transfer}

    A worker domain records spans into its own forest; before the domain
    is joined it calls {!harvest} and ships the resulting list back (as
    part of its result value), and the coordinator calls {!absorb} to
    splice the workers' forests into its own trace in a deterministic
    order of its choosing. *)

val harvest : unit -> span list
(** The calling domain's completed root spans, in start order; clears
    them from the recorder.  Open frames are left untouched (a worker
    should harvest only after closing its spans). *)

val absorb : span list -> unit
(** Append harvested spans, preserving their order, under the calling
    domain's innermost open span (or as roots if none is open).  No-op
    when disabled or on an empty list. *)

type snapshot = {
  ss_spans : span list;  (** root spans, in start order *)
  ss_counters : Counter.snapshot list;  (** sorted by name *)
  ss_histograms : Histogram.snapshot list;  (** sorted by name *)
  ss_end_ns : int;  (** clock value when the snapshot was taken *)
}

val snapshot : unit -> snapshot
(** Drain the sink into a pure value.  Still-open spans are virtually
    closed at the current clock value (the recorder state is not
    modified), so the result is always a well-formed forest. *)

val span_totals : snapshot -> (string * int * int) list
(** Per span name, in first-seen depth-first order: (name, occurrence
    count, summed duration in ns). *)

(** {1 Exporters} — all byte-deterministic functions of the snapshot. *)

module Export : sig
  val chrome_trace : snapshot -> string
  (** Chrome trace-event JSON (one complete "X" event per span, one "C"
      event per counter that recorded a nonzero value), loadable in
      Perfetto / chrome://tracing.  Zero-valued counters are omitted so
      the trace depends only on the run, not on which instrumented
      modules the producing binary happens to link. *)

  val jsonl : snapshot -> string
  (** One JSON object per line: every counter, histogram, and per-name
      span total. *)

  val summary : snapshot -> string
  (** Human-readable table of span totals, counters, and histograms. *)
end
