(* Fixed-size domain pool: the one place the simulator spawns and joins
   domains. It runs every parallel batch: experiment cells, serve jobs,
   chaos cases and the epochs of a partitioned run.

   Determinism contract: a task must be a pure function of its input —
   every scenario builds its own scheduler and RNG from an explicit
   seed, so nothing mutable is shared between tasks.  Results are
   stored by index and handed back in that canonical order, which
   makes the aggregated output bit-identical for any worker count and
   any scheduling interleaving.

   The pool spawns [jobs - 1] worker domains that park on a generation
   barrier. [iter] publishes a batch by bumping the generation; every
   worker and the caller then claim indices from one atomic counter
   until the batch is exhausted, and [iter] returns once every worker
   has checked out of it, so a pool of size N keeps exactly N domains
   busy. With [jobs = 1] (or a batch of at most one index) [iter] is a
   plain loop and no domain is ever spawned — the sequential path for
   single-core hosts, an explicit [--jobs 1] and single-partition runs.

   A raising index does not kill its worker, and [iter] re-raises the
   exception of the lowest index that raised (where a plain loop
   stops), so the exception a batch raises does not depend on the
   worker count.
   [map_collect] captures each task's exception as its own Error
   verdict; [map] is the all-or-nothing view on top of it, re-raising
   the first failure (in canonical order) as [Task_failed] carrying the
   offending scenario's label. *)

exception
  Task_failed of { label : string; exn : exn; backtrace : string }

let () =
  Printexc.register_printer (function
    | Task_failed { label; exn; _ } ->
        Some
          (Printf.sprintf "task %S failed: %s" label
             (Printexc.to_string exn))
    | _ -> None)

(* OCaml 5.1 runs at most 128 domains, the main one included
   ([Max_domains]); past that [Domain.spawn] raises [Failure]. *)
let max_jobs = 128

type t = {
  jobs : int;
  mutex : Mutex.t;
  wake : Condition.t; (* a new generation, or shutdown *)
  idle : Condition.t; (* the last worker left the batch *)
  mutable gen : int;
  mutable body : int -> unit;
  mutable size : int;
  next : int Atomic.t; (* the batch's next unclaimed index *)
  mutable busy : int; (* workers still in the batch *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
      (* the lowest index that raised *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Int.min max_jobs (Domain.recommended_domain_count ())

(* Claim and run indices until the batch is exhausted. *)
let rec claim t f n =
  let i = Atomic.fetch_and_add t.next 1 in
  if i < n then begin
    (try f i
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock t.mutex;
       (match t.failed with
       | Some (j, _, _) when j < i -> ()
       | _ -> t.failed <- Some (i, e, bt));
       Mutex.unlock t.mutex);
    claim t f n
  end

(* Park until the generation moves past [seen], join that batch, check
   out of it; exit on shutdown. *)
let rec worker_loop t seen =
  Mutex.lock t.mutex;
  while (not t.closed) && t.gen = seen do
    Condition.wait t.wake t.mutex
  done;
  if t.closed then Mutex.unlock t.mutex
  else begin
    let gen = t.gen and f = t.body and n = t.size in
    Mutex.unlock t.mutex;
    claim t f n;
    Mutex.lock t.mutex;
    t.busy <- t.busy - 1;
    if t.busy = 0 then Condition.signal t.idle;
    Mutex.unlock t.mutex;
    worker_loop t gen
  end

let shutdown t =
  if t.workers <> [] then begin
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let create ?jobs () =
  let jobs =
    match jobs with Some j -> j | None -> default_jobs ()
  in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  if jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Pool.create: jobs %d must be <= %d" jobs max_jobs);
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      gen = 0;
      body = ignore;
      size = 0;
      next = Atomic.make 0;
      busy = 0;
      failed = None;
      closed = false;
      workers = [];
    }
  in
  (* A spawn can still fail (other pools hold domains): release the
     workers already spawned, which would otherwise park forever. *)
  (try
     for _ = 2 to jobs do
       t.workers <- Domain.spawn (fun () -> worker_loop t 0) :: t.workers
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace e bt);
  t

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let iter t n f =
  if t.closed then invalid_arg "Pool.iter: pool is shut down";
  if n <= 1 || t.jobs = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    Mutex.lock t.mutex;
    t.body <- f;
    t.size <- n;
    Atomic.set t.next 0;
    t.busy <- t.jobs - 1;
    t.gen <- t.gen + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    claim t f n;
    Mutex.lock t.mutex;
    while t.busy > 0 do
      Condition.wait t.idle t.mutex
    done;
    let failed = t.failed in
    t.failed <- None;
    t.body <- ignore;
    Mutex.unlock t.mutex;
    match failed with
    | None -> ()
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  end

type failure = { flabel : string; fexn : exn; fbacktrace : string }

let map_collect t ~label ~f xs =
  let items = Array.of_list xs in
  let results =
    Array.make (Array.length items)
      (Error { flabel = ""; fexn = Exit; fbacktrace = "" })
  in
  iter t (Array.length items) (fun i ->
      let x = items.(i) in
      results.(i) <-
        (try Ok (f x)
         with e ->
           let fbacktrace = Printexc.get_backtrace () in
           Error { flabel = label x; fexn = e; fbacktrace }));
  Array.to_list results

let map t ~label ~f xs =
  List.map
    (function
      | Ok y -> y
      | Error { flabel; fexn; fbacktrace } ->
          raise
            (Task_failed
               { label = flabel; exn = fexn; backtrace = fbacktrace }))
    (map_collect t ~label ~f xs)

let sequential = create ~jobs:1 ()
