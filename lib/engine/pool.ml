(* Fixed-size domain pool for independent experiment cells.

   Determinism contract: a task must be a pure function of its input —
   every scenario builds its own scheduler and RNG from an explicit
   seed, so nothing mutable is shared between tasks.  Results are
   stored by submission index and handed back in that canonical order,
   which makes the aggregated output bit-identical for any worker
   count and any scheduling interleaving.

   The pool spawns [jobs - 1] worker domains; the caller's domain
   drains the queue alongside them while it waits for a batch, so a
   pool of size N keeps exactly N domains busy.  With [jobs = 1] (or a
   single-element batch) no domain is ever spawned and [map] is an
   ordinary sequential map — the degradation path for single-core
   hosts or an explicit [--jobs 1].

   A raising task does not kill its worker or poison the queue: the
   exception is captured per task and the rest of the batch completes.
   [map_collect] hands back every per-task verdict as Ok/Error in
   canonical order; [map] is the all-or-nothing view on top of it,
   re-raising the first failure (in canonical order) as [Task_failed]
   carrying the offending scenario's label. *)

exception
  Task_failed of { label : string; exn : exn; backtrace : string }

let () =
  Printexc.register_printer (function
    | Task_failed { label; exn; _ } ->
        Some
          (Printf.sprintf "task %S failed: %s" label
             (Printexc.to_string exn))
    | _ -> None)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  batch_done : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let rec worker_loop t =
  Mutex.lock t.mutex;
  let task =
    let rec await () =
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None ->
          if t.closed then None
          else begin
            Condition.wait t.has_work t.mutex;
            await ()
          end
    in
    await ()
  in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
      task ();
      worker_loop t

let create ?jobs () =
  let jobs =
    match jobs with Some j -> j | None -> default_jobs ()
  in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      batch_done = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type failure = { flabel : string; fexn : exn; fbacktrace : string }

let map_collect t ~label ~f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let wrap x =
    try Ok (f x) with e -> Error (e, Printexc.get_backtrace ())
  in
  let results =
    if n <= 1 || t.jobs = 1 then Array.map wrap items
    else begin
      Mutex.lock t.mutex;
      if t.closed then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool.map: pool is shut down"
      end;
      let results = Array.make n (Error (Exit, "")) in
      let remaining = ref n in
      Array.iteri
        (fun i x ->
          Queue.push
            (fun () ->
              let r = wrap x in
              Mutex.lock t.mutex;
              results.(i) <- r;
              decr remaining;
              if !remaining = 0 then Condition.broadcast t.batch_done;
              Mutex.unlock t.mutex)
            t.queue)
        items;
      Condition.broadcast t.has_work;
      (* Drain alongside the workers instead of idling a whole domain. *)
      while !remaining > 0 do
        match Queue.take_opt t.queue with
        | Some task ->
            Mutex.unlock t.mutex;
            task ();
            Mutex.lock t.mutex
        | None -> Condition.wait t.batch_done t.mutex
      done;
      Mutex.unlock t.mutex;
      results
    end
  in
  Array.mapi
    (fun i r ->
      match r with
      | Ok y -> Ok y
      | Error (exn, backtrace) ->
          Error
            { flabel = label items.(i); fexn = exn; fbacktrace = backtrace })
    results
  |> Array.to_list

let map t ~label ~f xs =
  List.map
    (function
      | Ok y -> y
      | Error { flabel; fexn; fbacktrace } ->
          raise
            (Task_failed
               { label = flabel; exn = fexn; backtrace = fbacktrace }))
    (map_collect t ~label ~f xs)
