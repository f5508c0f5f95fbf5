(* The benchmark's measuring process.  perfbench/run.py builds it,
   prepares its inputs and reads the one JSON line it prints last:

     {"correct": b, "attempted": n, "failed": n,
      "end_to_end": {name: value}, "per_layer": {name: value}}

   Modes:
     precompile FILE           compile the suite for spec-run, write FILE
     compile-cold  OPTS        cold compile + simulate a suite subset
     spec-run      OPTS --inputs FILE
                               sequential vs speculative runs of the suite
     serve-expect  DIR         engine counts of each DIR/*.c base build
     serve-layers  OPTS --cache-dir DIR
                               time Fingerprint / Artifact_cache calls
   OPTS: --seed N --seconds S --trace 0|1 [--corrupt]

   End-to-end figures are measured with tracing off; with --trace 1 the
   same rounds run with Spt_obs.Trace spans and runtime timelines on,
   every layer call is timed from here, and per_layer is filled too. *)

open Spt_driver
module Suite = Spt_workloads.Suite
module Runtime = Spt_runtime.Runtime
module Specmem = Spt_runtime.Specmem
module Pool = Spt_runtime.Pool
module Engine = Spt_exec.Engine
module Interp = Spt_interp.Interp
module Tls = Spt_tlsim.Tls_machine
module Trace = Spt_obs.Trace
module Timeline = Spt_obs.Timeline
module Json = Spt_obs.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let fi = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* a seeded Fisher-Yates shuffle: the seed fixes the order in which each
   round visits its programs, never which programs run *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* peak resident set of this process, from the kernel's high-water mark *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> fi kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* allocation and collections across every domain (OCaml 5's quick_stat
   folds in the counters of joined domains) *)
type gc_mark = { words : float; minor : int; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

let gc_delta a b =
  { words = b.words -. a.words; minor = b.minor - a.minor; major = b.major - a.major }

(* ------------------------------------------------------------------ *)
(* Options and output *)

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  corrupt : bool;
  inputs : string;
  cache_dir : string;
}

let parse_opts args =
  let o =
    ref
      {
        seed = 1;
        seconds = 1.0;
        trace = false;
        corrupt = false;
        inputs = "";
        cache_dir = "";
      }
  in
  let rec go = function
    | "--seed" :: v :: r -> o := { !o with seed = int_of_string v }; go r
    | "--seconds" :: v :: r -> o := { !o with seconds = float_of_string v }; go r
    | "--trace" :: v :: r -> o := { !o with trace = v = "1" }; go r
    | "--corrupt" :: r -> o := { !o with corrupt = true }; go r
    | "--inputs" :: v :: r -> o := { !o with inputs = v }; go r
    | "--cache-dir" :: v :: r -> o := { !o with cache_dir = v }; go r
    | [] -> ()
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go args;
  !o

let emit ~correct ~attempted ~failed ~e2e ~layers =
  let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("end_to_end", obj e2e);
            ("per_layer", obj layers);
          ]))

type tally = { mutable attempted : int; mutable failed : int }

(* An operation fails once however many of its checks fail; each failed
   check is named on stderr. *)
let check_all tally op checks =
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (what, _) -> Printf.eprintf "perfbench: check failed: %s: %s\n%!" op what) bad;
  if bad <> [] then tally.failed <- tally.failed + 1

(* Run [setup] three times and keep the last result; the reported set-up
   time is the median of the three. *)
let setup_thrice setup =
  let runs = List.init 3 (fun _ -> timed setup) in
  (fst (List.nth runs 2), median (List.map snd runs))

(* Whole rounds until [seconds] have passed: every run attempts the same
   operations in the same proportions, whatever its length. *)
let rounds ~seconds round =
  let t0 = now () in
  let rec go acc =
    let acc = round () :: acc in
    if now () -. t0 >= seconds then List.rev acc else go acc
  in
  go []

let bump tbl k v = Hashtbl.replace tbl k ((try Hashtbl.find tbl k with Not_found -> 0) + v)

let bumpf tbl k v =
  Hashtbl.replace tbl k ((try Hashtbl.find tbl k with Not_found -> 0.0) +. v)

(* Trace spans recorded so far, summed by name (seconds). *)
let span_totals () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match (Json.member "name" ev, Json.member "dur" ev) with
      | Some (Json.Str n), Some (Json.Float d) -> bumpf tbl n (d /. 1e6)
      | Some (Json.Str n), Some (Json.Int d) -> bumpf tbl n (fi d /. 1e6)
      | _ -> ())
    (Trace.events ());
  fun name -> try Hashtbl.find tbl name with Not_found -> 0.0

let count f = List.fold_left (fun a x -> a + f x) 0

(* ------------------------------------------------------------------ *)
(* Sequential vs speculative runs, as `sptc run --parallel` makes them *)

(* One SPT-compiled program as the speculative runtime receives it, with
   the references its runs are checked against, all computed with code
   apart from the bytecode engine and the speculative path. *)
type spec_input = {
  si_name : string;
  si_program : Spt_ir.Ir.program;  (** compile_spt under best *)
  si_loops : Runtime.loop_spec list;
  si_output : string;  (** untransformed program on the tree walker *)
  si_return : Interp.value option;
  si_digest : string;  (** Runtime.run with no speculative loop *)
}

(* the loop registrations Pipeline.run_parallel hands the runtime *)
let loop_specs (spt : Pipeline.spt_compilation) =
  List.map
    (fun (sl : Tls.spt_loop) ->
      let record =
        List.find_opt
          (fun (r : Pipeline.loop_record) ->
            String.equal r.Pipeline.lr_func sl.Tls.sl_fname
            && r.Pipeline.lr_header = sl.Tls.sl_header)
          spt.Pipeline.records
      in
      {
        Runtime.ls_id = sl.Tls.sl_id;
        ls_fname = sl.Tls.sl_fname;
        ls_header = sl.Tls.sl_header;
        ls_iter_ops =
          (match record with Some r -> r.Pipeline.lr_body_size | None -> 0.0);
        ls_depth = (match record with Some r -> r.Pipeline.lr_depth | None -> 0);
      })
    spt.Pipeline.spt_loops

(* two worker domains, automatic chunk and depth, no oracle; set in full
   so nothing is inherited from SPT_JOBS *)
let runtime_config timeline =
  {
    (Runtime.default_config ()) with
    Runtime.jobs = 2;
    window = 4;
    oracle = false;
    engine = Engine.Bytecode;
    chunk = None;
    depth = None;
    timeline;
  }

let spec_input ~name ~(reference : Interp.result) (spt : Pipeline.spt_compilation) =
  let plain =
    Runtime.run ~config:(runtime_config None) ~loops:[] spt.Pipeline.program
  in
  {
    si_name = name;
    si_program = spt.Pipeline.program;
    si_loops = loop_specs spt;
    si_output = reference.Interp.output;
    si_return = reference.Interp.return_value;
    si_digest = plain.Runtime.heap_digest;
  }

(* sums over every run of the engine's and the runtime's own figures *)
type run_acc = {
  mutable seq_s : float;
  mutable par_s : float;
  mutable seq_instrs : int;
  mutable par_instrs : int;
  mutable seq_words : float;
  mutable par_words : float;
  mutable par_minor : int;
  mutable loop_s : float;
  counts : (string, int) Hashtbl.t;
  buckets : (string, float) Hashtbl.t;
}

let run_acc () =
  {
    seq_s = 0.0; par_s = 0.0; seq_instrs = 0; par_instrs = 0; seq_words = 0.0;
    par_words = 0.0; par_minor = 0; loop_s = 0.0; counts = Hashtbl.create 16;
    buckets = Hashtbl.create 16;
  }

(* the attribution buckets of `sptc run --attrib` (Report.attrib_json):
   kills and serial re-executions are prices of misspeculation and land
   in rollback; idle is each lane's wall time outside every bucket *)
let bucket_of_kind = function
  | Timeline.Compile -> "compile"
  | Timeline.Exec -> "dispatch"
  | Timeline.Chunk -> "chunk"
  | Timeline.Svp -> "svp"
  | Timeline.Fork -> "fork"
  | Timeline.Validate -> "validate"
  | Timeline.Commit -> "commit"
  | Timeline.Rollback | Timeline.Reexec | Timeline.Kill -> "rollback"

let bucket_names =
  [ "compile"; "dispatch"; "chunk"; "svp"; "fork"; "validate"; "commit"; "rollback"; "idle" ]

let counter_names =
  [ "forks"; "commits"; "violations"; "faults"; "kills"; "serial_reexecs"; "despecs" ]

let add_runtime_stats acc (r : Runtime.result) =
  List.iter
    (fun (_, (s : Runtime.loop_stats)) ->
      acc.loop_s <- acc.loop_s +. s.Runtime.wall;
      bump acc.counts "forks" s.Runtime.forks;
      bump acc.counts "commits" s.Runtime.commits;
      bump acc.counts "violations" s.Runtime.violations;
      bump acc.counts "faults" s.Runtime.faults;
      bump acc.counts "kills" s.Runtime.kills;
      bump acc.counts "serial_reexecs" s.Runtime.serial_reexecs;
      bump acc.counts "despecs" s.Runtime.despecs;
      let predicts, hits, _ = Runtime.svp_totals s in
      bump acc.counts "svp_predicts" predicts;
      bump acc.counts "svp_hits" hits)
    r.Runtime.stats

let add_timeline acc ~wall tl =
  List.iter
    (fun (lane : Timeline.lane_summary) ->
      List.iter
        (fun (k, s, _) -> bumpf acc.buckets (bucket_of_kind k) s)
        lane.Timeline.ls_by_kind;
      bumpf acc.buckets "idle" (Float.max 0.0 (wall -. lane.Timeline.ls_busy_s)))
    (Timeline.summary tl)

(* One operation: the program on the bytecode engine, then on the
   speculative runtime, checked against [si]'s references; the timeline is
   recorded when tracing.  Returns the wall time of the two runs. *)
let run_program ~trace tally acc si =
  let g0 = gc_mark () in
  let seq, t_seq =
    timed (fun () ->
        Engine.run ~max_steps:(runtime_config None).Runtime.max_steps si.si_program)
  in
  let g1 = gc_mark () in
  let timeline = if trace then Some (Timeline.create ()) else None in
  let par, t_par =
    timed (fun () ->
        Runtime.run ~config:(runtime_config timeline) ~loops:si.si_loops si.si_program)
  in
  let g2 = gc_mark () in
  tally.attempted <- tally.attempted + 1;
  check_all tally si.si_name
    [
      ("sequential output", String.equal seq.Interp.output si.si_output);
      ("speculative output", String.equal par.Runtime.output si.si_output);
      ( "speculative return value",
        Option.equal Specmem.value_eq par.Runtime.return_value si.si_return );
      ("speculative heap digest", String.equal par.Runtime.heap_digest si.si_digest);
      ( "speculative committed instruction count",
        par.Runtime.dynamic_instrs = seq.Interp.dynamic_instrs );
    ];
  acc.seq_s <- acc.seq_s +. t_seq;
  acc.par_s <- acc.par_s +. t_par;
  acc.seq_instrs <- acc.seq_instrs + seq.Interp.dynamic_instrs;
  acc.par_instrs <- acc.par_instrs + par.Runtime.dynamic_instrs;
  acc.seq_words <- acc.seq_words +. (gc_delta g0 g1).words;
  acc.par_words <- acc.par_words +. (gc_delta g1 g2).words;
  acc.par_minor <- acc.par_minor + (gc_delta g1 g2).minor;
  add_runtime_stats acc par;
  Option.iter (add_timeline acc ~wall:par.Runtime.wall_time) timeline;
  t_seq +. t_par

(* Specmem on a synthetic view: [n] loads then [n] stores at seeded
   addresses of a 64 Ki-word master, then validate and commit; ns per
   operation (validate and commit per logged entry), median of 5 *)
let specmem_probe seed =
  let rng = Random.State.make [| seed; 7 |] in
  let words = 65536 and n = 200_000 in
  let trial () =
    let mem = Array.init words (fun i -> Spt_ir.Eval.Vi (Int64.of_int i)) in
    let rng_state = ref 0L in
    let master =
      {
        Specmem.m_mem = mem;
        m_regs = [||];
        m_rng_get = (fun () -> !rng_state);
        m_rng_set = (fun v -> rng_state := v);
        m_out = Buffer.create 16;
      }
    in
    let addrs = Array.init n (fun _ -> Random.State.int rng words) in
    let v = Specmem.create master in
    let io = Specmem.memio v in
    let _, t_load = timed (fun () -> Array.iter (fun a -> ignore (io.Interp.mio_load a)) addrs) in
    let _, t_store =
      timed (fun () -> Array.iter (fun a -> io.Interp.mio_store a (Spt_ir.Eval.Vi 1L)) addrs)
    in
    let reads, writes = Specmem.footprint v in
    let ok, t_val = timed (fun () -> Specmem.validate v) in
    if Result.is_error ok then failwith "specmem probe: validation failed on an idle master";
    let _, t_commit = timed (fun () -> Specmem.commit v) in
    (t_load /. fi n, t_store /. fi n, ratio t_val (fi reads), ratio t_commit (fi writes))
  in
  let ts = List.init 5 (fun _ -> trial ()) in
  let pick f = 1e9 *. median (List.map f ts) in
  [
    ("specmem.load_ns", pick (fun (l, _, _, _) -> l));
    ("specmem.store_ns", pick (fun (_, s, _, _) -> s));
    ("specmem.validate_ns", pick (fun (_, _, v, _) -> v));
    ("specmem.commit_ns", pick (fun (_, _, _, c) -> c));
  ]

let pool_probe () =
  let ts =
    List.init 10 (fun _ -> snd (timed (fun () -> Pool.shutdown (Pool.create ~jobs:2 ()))))
  in
  [ ("pool.create_shutdown_ms", 1000.0 *. median ts) ]

(* the per-layer figures of the runs summed in [acc], per round *)
let run_metrics ~seed ~per_round acc =
  let c k = fi (try Hashtbl.find acc.counts k with Not_found -> 0) in
  [
    ("seq_run_s", per_round acc.seq_s);
    ("par_run_s", per_round acc.par_s);
    ("exec.ns_per_instr", 1e9 *. ratio acc.seq_s (fi acc.seq_instrs));
    ("exec.alloc_words_per_instr", ratio acc.seq_words (fi acc.seq_instrs));
    ("runtime.ns_per_instr", 1e9 *. ratio acc.par_s (fi acc.par_instrs));
    ("runtime.alloc_words_per_instr", ratio acc.par_words (fi acc.par_instrs));
    ("runtime.minor_collections", per_round (fi acc.par_minor));
    ("runtime.loop_s", per_round acc.loop_s);
    ("runtime.outside_loop_s", per_round (acc.par_s -. acc.loop_s));
    ("runtime.commit_ratio", ratio (c "commits") (c "forks"));
    ("runtime.svp_hit_ratio", ratio (c "svp_hits") (c "svp_predicts"));
  ]
  @ List.map (fun k -> ("runtime." ^ k, per_round (c k))) counter_names
  @ List.map
      (fun b ->
        ( "runtime.bucket." ^ b ^ "_s",
          per_round (try Hashtbl.find acc.buckets b with Not_found -> 0.0) ))
      bucket_names
  @ specmem_probe seed @ pool_probe ()

(* ------------------------------------------------------------------ *)
(* compile-cold *)

(* the three cheapest suite programs to compile: gap (one SPT loop), gcc
   (four loops that misspeculate) and parser (value prediction) *)
let cold_programs = [ "gap"; "gcc"; "parser" ]

type cold_ref = {
  cr_name : string;
  cr_src : string;
  cr_reference : Interp.result;  (** untransformed program, tree walker *)
  cr_base_count : int;  (** engine instruction count of the base build *)
}

let cold_setup ~corrupt () =
  List.mapi
    (fun i name ->
      let src = (Suite.find name).Suite.source in
      let reference = Interp.run (Pipeline.front_end src) in
      let base =
        Pipeline.compile_base ~unroll:Config.best.Config.unroll
          ~inline:Config.best.Config.inline src
      in
      {
        cr_name = name;
        cr_src = src;
        cr_reference =
          (if corrupt && i = 0 then
             { reference with Interp.output = reference.Interp.output ^ "corrupt" }
           else reference);
        cr_base_count = (Engine.run base).Interp.dynamic_instrs;
      })
    cold_programs

(* layer figures of one compiled program *)
type cold_layers = {
  cl_ref : cold_ref;
  cl_spt : Pipeline.spt_compilation;
  cl_compile_base : float;
  cl_compile_spt : float;
  cl_sim_base : float;
  cl_sim_spt : float;
  cl_sim_words : float;
  cl_sim_instrs : int;
  cl_base_cycles : float;
  cl_spt_cycles : float;
}

let compile_cold opts =
  let config = Config.best in
  let refs, setup_s = setup_thrice (cold_setup ~corrupt:opts.corrupt) in
  let tally = { attempted = 0; failed = 0 } in
  let rng = Random.State.make [| opts.seed |] in
  Trace.set_enabled opts.trace;
  let layers = ref [] and op_times = ref [] in
  (* One operation: the four calls Pipeline.evaluate makes, in its order,
     made here so the SPT program is at hand for the checks and each step
     is timed on its own. *)
  let compile r =
    (* start from a compacted heap, as a fresh `sptc workload` process
       does, so that neither the time nor the peak memory of a compile
       depends on the programs before it *)
    Gc.compact ();
    let t0 = now () in
    let base_prog, t_cb =
      timed (fun () ->
          Trace.span "compile.base" (fun () ->
              Pipeline.compile_base ~unroll:config.Config.unroll
                ~inline:config.Config.inline r.cr_src))
    in
    let g0 = gc_mark () in
    let base, t_sb =
      timed (fun () ->
          Trace.span "simulate.base" (fun () ->
              Tls.run ~config:config.Config.sim base_prog))
    in
    let g1 = gc_mark () in
    let spt, t_cs = timed (fun () -> Pipeline.compile_spt config r.cr_src) in
    let g2 = gc_mark () in
    let spt_res, t_ss =
      timed (fun () ->
          Trace.span "simulate.spt" (fun () ->
              Tls.run ~config:config.Config.sim
                ~spt_loops:spt.Pipeline.spt_loops spt.Pipeline.program))
    in
    let g3 = gc_mark () in
    let dt = now () -. t0 in
    op_times := dt :: !op_times;
    tally.attempted <- tally.attempted + 1;
    let reference = r.cr_reference.Interp.output in
    check_all tally r.cr_name
      [
        ( "SPT program output on the tree walker",
          String.equal (Interp.run spt.Pipeline.program).Interp.output reference );
        ("base simulator output", String.equal base.Tls.output reference);
        ("SPT simulator output", String.equal spt_res.Tls.output reference);
        ("base simulator instruction count", base.Tls.instrs = r.cr_base_count);
        ( "SPT simulator instruction count",
          spt_res.Tls.instrs = (Engine.run spt.Pipeline.program).Interp.dynamic_instrs );
      ];
    layers :=
      {
        cl_ref = r;
        cl_spt = spt;
        cl_compile_base = t_cb;
        cl_compile_spt = t_cs;
        cl_sim_base = t_sb;
        cl_sim_spt = t_ss;
        cl_sim_words = (gc_delta g0 g1).words +. (gc_delta g2 g3).words;
        cl_sim_instrs = base.Tls.instrs + spt_res.Tls.instrs;
        cl_base_cycles = base.Tls.cycles;
        cl_spt_cycles = spt_res.Tls.cycles;
      }
      :: !layers;
    dt
  in
  let round () =
    let g0 = gc_mark () in
    let wall = sum (List.map compile (shuffle rng refs)) in
    (wall, gc_delta g0 (gc_mark ()))
  in
  let done_rounds = rounds ~seconds:opts.seconds round in
  let n_rounds = fi (List.length done_rounds) in
  let per_round x = x /. n_rounds in
  let e2e =
    [
      ("setup_s", setup_s);
      ("wall_s", per_round (sum (List.map fst done_rounds)));
      ("op_p50_ms", 1000.0 *. median !op_times);
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  let layers =
    if not opts.trace then []
    else begin
      let span = span_totals () in
      let ls = !layers in
      let total f = per_round (sum (List.map f ls)) in
      (* the last round's programs, for the per-program figures *)
      let last = List.filteri (fun i _ -> i < List.length refs) ls in
      let sim_instrs = fi (count (fun l -> l.cl_sim_instrs) ls) in
      (* Pipeline.profile_all called directly, once per program, on the
         SSA program compile_spt profiles first (before unrolling) *)
      let prof_s, prof_words, prof_instrs =
        List.fold_left
          (fun (t, w, n) r ->
            let prog = Pipeline.front_end r.cr_src in
            Pipeline.to_ssa prog;
            let g0 = gc_mark () in
            let _, dt =
              timed (fun () -> Pipeline.profile_all prog ~max_steps:100_000_000)
            in
            let g = gc_delta g0 (gc_mark ()) in
            (t +. dt, w +. g.words, n + (Interp.run prog).Interp.dynamic_instrs))
          (0.0, 0.0, 0) refs
      in
      (* the last round's SPT programs run as `sptc run --parallel` runs
         them, once each, for the exec and runtime layers *)
      let runs = run_acc () in
      List.iter
        (fun l ->
          ignore
            (run_program ~trace:true tally runs
               (spec_input ~name:l.cl_ref.cr_name ~reference:l.cl_ref.cr_reference
                  l.cl_spt)))
        last;
      let gcs = List.map snd done_rounds in
      [
        ("compile_s", per_round (sum (List.map fst done_rounds)));
        ("srclang.front_end_s", per_round (span "frontend"));
        ("ir.ssa_s", per_round (span "ssa.construct" +. span "ssa.destruct"));
        ("profile.s", per_round (span "profile"));
        ("profile.ns_per_instr", 1e9 *. ratio prof_s (fi prof_instrs));
        ("profile.alloc_words_per_instr", ratio prof_words (fi prof_instrs));
        ("driver.compile_base_s", total (fun l -> l.cl_compile_base));
        ("driver.compile_spt_s", total (fun l -> l.cl_compile_spt));
        ("span.pass1.analyze_s", per_round (span "pass1.analyze"));
        ("span.svp.reprofile_s", per_round (span "svp.reprofile"));
        ("span.pass2.select_s", per_round (span "pass2.select"));
        ("span.transform_s", per_round (span "transform"));
        ("tlsim.base_s", total (fun l -> l.cl_sim_base));
        ("tlsim.spt_s", total (fun l -> l.cl_sim_spt));
        ( "tlsim.ns_per_instr",
          1e9 *. ratio (sum (List.map (fun l -> l.cl_sim_base +. l.cl_sim_spt) ls)) sim_instrs );
        ("tlsim.alloc_words_per_instr", ratio (sum (List.map (fun l -> l.cl_sim_words) ls)) sim_instrs);
        ("gc.minor_collections", per_round (fi (count (fun g -> g.minor) gcs)));
        ("gc.major_collections", per_round (fi (count (fun g -> g.major) gcs)));
        ("transform.spt_loops", fi (count (fun l -> List.length l.cl_spt.Pipeline.spt_loops) last));
        ("tlsim.base_cycles", sum (List.map (fun l -> l.cl_base_cycles) last));
        ("tlsim.spt_cycles", sum (List.map (fun l -> l.cl_spt_cycles) last));
        ( "spt_speedup",
          exp
            (sum (List.map (fun l -> log (l.cl_base_cycles /. l.cl_spt_cycles)) last)
            /. fi (List.length last)) );
      ]
      @ run_metrics ~seed:opts.seed ~per_round:Fun.id runs
    end
  in
  emit ~correct:(tally.failed = 0) ~attempted:tally.attempted
    ~failed:tally.failed ~e2e ~layers

(* ------------------------------------------------------------------ *)
(* spec-run (not in BENCHMARK.json: see perfbench/README.md) *)

let precompile file =
  let inputs =
    List.map
      (fun (w : Suite.workload) ->
        spec_input ~name:w.Suite.name
          ~reference:(Interp.run (Pipeline.front_end w.Suite.source))
          (Pipeline.compile_spt Config.best w.Suite.source))
      Suite.all
  in
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  Marshal.to_channel oc (inputs : spec_input list) [];
  close_out oc;
  Sys.rename tmp file

let load_inputs file () : spec_input list =
  let ic = open_in_bin file in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)

let spec_run opts =
  let inputs, setup_s = setup_thrice (load_inputs opts.inputs) in
  let inputs =
    if opts.corrupt then
      List.mapi (fun i si -> if i = 0 then { si with si_digest = "corrupt" } else si) inputs
    else inputs
  in
  let tally = { attempted = 0; failed = 0 } in
  let rng = Random.State.make [| opts.seed |] in
  let acc = run_acc () in
  let op_times = ref [] in
  let round () =
    sum
      (List.map
         (fun si ->
           let dt = run_program ~trace:opts.trace tally acc si in
           op_times := dt :: !op_times;
           dt)
         (shuffle rng inputs))
  in
  let done_rounds = rounds ~seconds:opts.seconds round in
  let per_round x = x /. fi (List.length done_rounds) in
  let e2e =
    [
      ("setup_s", setup_s);
      ("wall_s", per_round (sum done_rounds));
      ("op_p50_ms", 1000.0 *. median !op_times);
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  let layers = if opts.trace then run_metrics ~seed:opts.seed ~per_round acc else [] in
  emit ~correct:(tally.failed = 0) ~attempted:tally.attempted
    ~failed:tally.failed ~e2e ~layers

(* ------------------------------------------------------------------ *)
(* serve-mixed helpers (the client itself is perfbench/serve_client.py) *)

(* The instruction count a cold reply's eval.base.instrs must equal:
   the bytecode engine on Pipeline.compile_base of each source. *)
let serve_expect dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
  in
  let counts =
    List.map
      (fun f ->
        let ic = open_in_bin (Filename.concat dir f) in
        let src = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let base =
          Pipeline.compile_base ~unroll:Config.best.Config.unroll
            ~inline:Config.best.Config.inline src
        in
        (Filename.chop_suffix f ".c", Json.Int (Engine.run base).Interp.dynamic_instrs))
      files
  in
  print_endline (Json.to_string ~minify:true (Json.Obj counts))

(* the suite programs serve-mixed requests warm *)
let warm_programs = [ "gcc"; "parser" ]

(* Time the service layers' calls on the warm programs against the cache
   the server filled: the fingerprint of the lowered program, a find that
   a warm hit makes (memory), a store that a cold miss makes (disk). *)
let serve_layers opts =
  let config = Config.best in
  let cache = Spt_service.Artifact_cache.create ~dir:opts.cache_dir () in
  let config_key = Config.cache_key config ^ ";tool=" ^ Spt_service.Cached.tool_version in
  let reps = 30 in
  let per name =
    let src = (Suite.find name).Suite.source in
    let prog = Pipeline.front_end src in
    let t_key =
      median
        (List.init reps (fun _ ->
             snd (timed (fun () -> Spt_service.Fingerprint.key ~config_key prog))))
    in
    let key = Spt_service.Cached.key_of ~config src in
    let payload =
      match Spt_service.Artifact_cache.find cache key with
      | Some p -> p
      | None -> failwith ("serve-layers: no cached artifact for " ^ name)
    in
    (* a memory hit takes well under the clock's resolution: time 1000 *)
    let find_1000 () =
      for _ = 1 to 1000 do
        ignore (Spt_service.Artifact_cache.find cache key)
      done
    in
    let t_find = median (List.init reps (fun _ -> snd (timed find_1000))) /. 1000.0 in
    let store_dir = Filename.concat opts.cache_dir ("store-probe-" ^ name) in
    let scratch = Spt_service.Artifact_cache.create ~dir:store_dir () in
    let t_store =
      median
        (List.init reps (fun i ->
             let k = Digest.to_hex (Digest.string (Printf.sprintf "%s-%d-%d" name opts.seed i)) in
             snd (timed (fun () -> Spt_service.Artifact_cache.store scratch k payload))))
    in
    (t_key, t_find, t_store)
  in
  let ts = List.map per warm_programs in
  let avg f = 1000.0 *. sum (List.map f ts) /. fi (List.length ts) in
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Float v))
             [
               ("fingerprint.key_ms", avg (fun (k, _, _) -> k));
               ("artifact_cache.find_ms", avg (fun (_, f, _) -> f));
               ("artifact_cache.store_ms", avg (fun (_, _, s) -> s));
             ])))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "precompile"; file ] -> precompile file
  | "compile-cold" :: args -> compile_cold (parse_opts args)
  | "spec-run" :: args -> spec_run (parse_opts args)
  | [ "serve-expect"; dir ] -> serve_expect dir
  | "serve-layers" :: args -> serve_layers (parse_opts args)
  | _ ->
    prerr_endline
      "usage: harness (precompile FILE | compile-cold OPTS | spec-run OPTS \
       --inputs FILE | serve-expect DIR | serve-layers OPTS --cache-dir DIR)";
    exit 2
