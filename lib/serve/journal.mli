(** Write-ahead job journal: one compact JSON record per line.

    Every state transition of the job service is appended (and flushed)
    here before it takes effect, so a daemon killed at any instant —
    SIGKILL included — can {!replay} the journal on restart and
    reconstruct its queue: submitted minus finished minus quarantined
    is still pending, and a finished job is never re-run. *)

type event =
  | Submitted of { job : string; spec : Report.Json.t }
      (** a job entered the queue; [spec] is its full scenario JSON, so
          replay needs nothing but the journal *)
  | Started of { job : string; attempt : int }  (** attempts count from 1 *)
  | Checkpointed of { job : string; snapshot : string; at_ns : int }
      (** drained at a checkpoint boundary: resumable from [snapshot] *)
  | Finished of { job : string; outcome : string }
      (** artifacts are on disk at [outcome] *)
  | Failed of {
      job : string;
      attempt : int;
      error : string;
      retry_in_s : float;  (** backoff before the next attempt *)
    }
  | Quarantined of { job : string; artifact : string; error : string }
      (** given up: the replayable failure artifact is at [artifact] *)

type t

val open_append : path:string -> t
(** Open (creating if absent) for appending. *)

val append : t -> event -> unit
(** Write one record line and flush — the WAL barrier. *)

val close : t -> unit

val replay : path:string -> event list
(** Records in append order. A missing file is an empty journal; a torn
    tail (crash mid-append) silently ends the replay at the last intact
    line — every pass stops at the same place, so later appends are
    still readable. *)

val event_to_json : event -> Report.Json.t
(** The line {!append} writes, as a JSON value. Only the [serve] test
    "journal round trip" calls it, to compare replayed events. *)
