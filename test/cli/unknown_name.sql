create table t (a int);
insert into t values (1), (2);
select a from t;
select nosuch from t;
select a from t;
